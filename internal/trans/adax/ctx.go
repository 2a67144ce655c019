package adax

import (
	"context"
	"fmt"
	"slices"

	"github.com/scriptabs/goscript/internal/ada"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// message is what travels through the msg entries: Ada acceptors do not
// learn the caller's identity, so the sending role names itself in the
// payload.
type message struct {
	from ids.RoleRef
	tag  string
	val  any
}

// hostCtx executes a role body inside its role task. Communications follow
// the paper's rewriting: a send becomes an entry call on the peer role's
// task; a receive becomes an accept on this task's msg entry. Because Ada
// accepts cannot filter by caller or constructor, mismatching messages are
// stashed and re-delivered to later receives — the acceptance still
// releases the sender, so cross-role synchronization is weaker than on the
// native runtime (a consequence of the translation, not a bug in it).
type hostCtx struct {
	core.ParamBag
	rt    *roleTask
	tk    *ada.Task
	stash []message
}

var _ core.Ctx = (*hostCtx)(nil)

func (rc *hostCtx) Context() context.Context { return rc.tk.Context() }
func (rc *hostCtx) Role() ids.RoleRef        { return rc.rt.role }
func (rc *hostCtx) Index() int               { return rc.rt.role.Index }

// PID returns the role task's name: the enroller's identity is not visible
// to the role body under this translation.
func (rc *hostCtx) PID() ids.PID { return ids.PID(rc.rt.task.Name()) }

// Performance returns the number of start rendezvous this role task has
// served.
func (rc *hostCtx) Performance() int {
	rc.rt.mu.Lock()
	defer rc.rt.mu.Unlock()
	return rc.rt.perf
}

func (rc *hostCtx) Send(to ids.RoleRef, v any) error { return rc.SendTag(to, "", v) }

func (rc *hostCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	peer, ok := rc.rt.host.tasks[to]
	if !ok {
		return fmt.Errorf("%w: %s", core.ErrUnknownRole, to)
	}
	_, err := peer.msg.Call(rc.tk.Context(), message{from: rc.rt.role, tag: tag, val: v})
	if err != nil {
		return fmt.Errorf("adax: msg entry call on %s: %w", to, err)
	}
	return nil
}

// SendAll calls each target's msg entry in turn: Ada entry calls are
// inherently serial from one task, so there is no vectorized form.
func (rc *hostCtx) SendAll(tos []ids.RoleRef, v any) error { return core.SendEach(rc, tos, v) }

// await returns the first message match takes: from the stash, where the
// messages no receive has taken yet wait in arrival order, or else from the
// next rendezvous on this role's msg entry, stashing each it does not take.
func (rc *hostCtx) await(match func(message) bool) (message, error) {
	if i := slices.IndexFunc(rc.stash, match); i >= 0 {
		m := rc.stash[i]
		rc.stash = slices.Delete(rc.stash, i, i+1)
		return m, nil
	}
	for {
		var got message
		err := rc.tk.Accept(rc.rt.msg, func(ins []any) ([]any, error) {
			m, ok := ins[0].(message)
			if !ok {
				return nil, fmt.Errorf("adax: bad msg payload %T", ins[0])
			}
			got = m
			return nil, nil
		})
		if err != nil || match(got) {
			return got, err
		}
		rc.stash = append(rc.stash, got)
	}
}

func (rc *hostCtx) Recv(from ids.RoleRef) (any, error) { return rc.RecvTag(from, "") }

func (rc *hostCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	if _, ok := rc.rt.host.tasks[from]; !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownRole, from) // would block forever
	}
	m, err := rc.await(func(m message) bool { return m.from == from && m.tag == tag })
	return m.val, err
}

func (rc *hostCtx) RecvAny() (ids.RoleRef, string, any, error) {
	m, err := rc.await(func(message) bool { return true })
	return m.from, m.tag, m.val, err
}

// Select supports receive-only alternatives (Ada's selective wait) and, as
// a degenerate case, a send-only list executed as a plain entry call on the
// first enabled branch. Mixing sends and receives fails with ErrUnsupported
// — Ada allows "selections between alternative entries … but not selections
// between alternative calls", which is exactly why Figure 8's broadcast is
// reversed.
func (rc *hostCtx) Select(branches ...core.SelectBranch) (core.Selected, error) {
	receives, sendIdx := false, -1
	for i, b := range branches {
		switch {
		case !b.Enabled():
		case b.IsSend():
			if sendIdx < 0 {
				sendIdx = i
			}
		default:
			if peer, anyPeer := b.BranchPeer(); !anyPeer {
				if _, ok := rc.rt.host.tasks[peer]; !ok {
					return core.Selected{}, fmt.Errorf("%w: %s", core.ErrUnknownRole, peer)
				}
			}
			receives = true
		}
	}
	switch {
	case !receives && sendIdx < 0:
		return core.Selected{}, core.ErrNoBranches
	case receives && sendIdx >= 0:
		return core.Selected{}, fmt.Errorf("%w: select mixing entry calls with accepts", ErrUnsupported)
	case sendIdx >= 0:
		b := branches[sendIdx]
		peer, _ := b.BranchPeer()
		if err := rc.SendTag(peer, b.BranchTag(), b.BranchValue()); err != nil {
			return core.Selected{}, err
		}
		return core.Selected{Index: sendIdx, Peer: peer, Tag: b.BranchTag()}, nil
	}
	idx := -1
	m, err := rc.await(func(m message) bool {
		idx = slices.IndexFunc(branches, func(b core.SelectBranch) bool { return b.Accepts(m.from, m.tag) })
		return idx >= 0
	})
	if err != nil {
		return core.Selected{}, err
	}
	return core.Selected{Index: idx, Peer: m.from, Tag: m.tag, Val: m.val}, nil
}

// Terminated always reports false: the translation has no critical role
// sets, so every role is assumed enrolled.
func (rc *hostCtx) Terminated(ids.RoleRef) bool { return false }

// Filled always reports true under the same assumption.
func (rc *hostCtx) Filled(ids.RoleRef) bool { return true }

// FamilySize returns the declared extent of a fixed family.
func (rc *hostCtx) FamilySize(name string) int { return rc.rt.host.def.FamilyExtent(name) }
