package cspx

import (
	"context"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/csp"
	"github.com/scriptabs/goscript/internal/ids"
)

// hostCtx executes a role body on the CSP substrate, applying the paper's
// rewriting: role names are replaced by process names from the enrollment's
// binding, and every communication is tagged with the script's unique tag
// prefix ("r1!x+y becomes P_i1!s(x+y)").
type hostCtx struct {
	core.ParamBag
	host    *Host
	proc    *csp.Proc
	role    ids.RoleRef
	binding map[ids.RoleRef]string
	reverse map[string]ids.RoleRef
}

var _ core.Ctx = (*hostCtx)(nil)

func (rc *hostCtx) Context() context.Context { return rc.proc.Context() }
func (rc *hostCtx) Role() ids.RoleRef        { return rc.role }
func (rc *hostCtx) Index() int               { return rc.role.Index }
func (rc *hostCtx) PID() ids.PID             { return ids.PID(rc.proc.Name()) }

// Performance returns 0: the enrolling CSP process cannot observe the
// supervisor's performance counter.
func (rc *hostCtx) Performance() int { return 0 }

func (rc *hostCtx) peerName(role ids.RoleRef) (string, error) {
	name, ok := rc.binding[role]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnboundRole, role)
	}
	return name, nil
}

func (rc *hostCtx) commTag(tag string) csp.Tag {
	return csp.Tag(rc.host.tagComm + tag)
}

func (rc *hostCtx) Send(to ids.RoleRef, v any) error { return rc.SendTag(to, "", v) }

func (rc *hostCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	name, err := rc.peerName(to)
	if err != nil {
		return err
	}
	return rc.proc.SendTagged(name, rc.commTag(tag), v)
}

// SendAll sends v to each target in turn: the CSP substrate has no
// vectorized scatter, so the fan-out is the paper's serial loop.
func (rc *hostCtx) SendAll(tos []ids.RoleRef, v any) error { return core.SendEach(rc, tos, v) }

func (rc *hostCtx) Recv(from ids.RoleRef) (any, error) { return rc.RecvTag(from, "") }

func (rc *hostCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	name, err := rc.peerName(from)
	if err != nil {
		return nil, err
	}
	return rc.proc.RecvTagged(name, rc.commTag(tag))
}

func (rc *hostCtx) RecvAny() (ids.RoleRef, string, any, error) {
	from, tag, v, err := rc.proc.RecvAny()
	if err != nil {
		return ids.RoleRef{}, "", nil, err
	}
	role, ok := rc.reverse[from]
	if !ok {
		return ids.RoleRef{}, "", nil, fmt.Errorf("cspx: message from unbound process %s", from)
	}
	return role, stripPrefix(string(tag), rc.host.tagComm), v, nil
}

func stripPrefix(tag, prefix string) string {
	if len(tag) >= len(prefix) && tag[:len(prefix)] == prefix {
		return tag[len(prefix):]
	}
	return tag
}

// Select maps the script's guarded alternative onto the CSP substrate's
// alternative command, which supports input and output guards alike.
func (rc *hostCtx) Select(branches ...core.SelectBranch) (core.Selected, error) {
	type outcome struct {
		idx  int
		peer ids.RoleRef
		tag  string
		val  any
	}
	var committed outcome
	guards := make([]csp.Guard, 0, len(branches))
	for i, b := range branches {
		i, b := i, b
		if !b.Enabled() {
			continue
		}
		peer, anyPeer := b.BranchPeer()
		record := func(p ids.RoleRef, tag string) func(any) error {
			return func(v any) error {
				committed = outcome{idx: i, peer: p, tag: tag, val: v}
				return nil
			}
		}
		switch {
		case b.IsSend():
			name, err := rc.peerName(peer)
			if err != nil {
				return core.Selected{}, err
			}
			guards = append(guards, csp.OnSend(name, rc.commTag(b.BranchTag()), b.BranchValue(),
				record(peer, b.BranchTag())))
		case anyPeer:
			guards = append(guards, csp.OnAny(rc.commTag(b.BranchTag()), func(v any) error {
				// The substrate does not report the sender of an OnAny
				// commit; an unbound zero role is returned.
				committed = outcome{idx: i, tag: b.BranchTag(), val: v}
				return nil
			}))
		default:
			name, err := rc.peerName(peer)
			if err != nil {
				return core.Selected{}, err
			}
			guards = append(guards, csp.On(name, rc.commTag(b.BranchTag()),
				record(peer, b.BranchTag())))
		}
	}
	if len(guards) == 0 {
		return core.Selected{}, core.ErrNoBranches
	}
	if err := rc.proc.Alt(guards...); err != nil {
		return core.Selected{}, err
	}
	return core.Selected{
		Index: committed.idx, Peer: committed.peer,
		Tag: committed.tag, Val: committed.val,
	}, nil
}

// Terminated always reports false: the paper's CSP translation has no
// critical role sets, so every named partner is assumed present.
func (rc *hostCtx) Terminated(ids.RoleRef) bool { return false }

// Filled always reports true under the full-naming assumption.
func (rc *hostCtx) Filled(ids.RoleRef) bool { return true }

// FamilySize returns the declared extent of a fixed family.
func (rc *hostCtx) FamilySize(name string) int { return rc.host.def.FamilyExtent(name) }
