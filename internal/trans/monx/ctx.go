package monx

import (
	"context"
	"fmt"
	"slices"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// hostCtx executes a role body against the mailbox scheme: a send deposits
// into the peer's mailbox (blocking only while it is full), a receive takes
// a matching message from one's own mailbox (WAIT UNTIL one is present).
type hostCtx struct {
	core.ParamBag
	host *Host
	role ids.RoleRef
	perf int
}

var _ core.Ctx = (*hostCtx)(nil)

// Context returns a background context: monitors have no cancellation.
func (rc *hostCtx) Context() context.Context { return context.Background() }

func (rc *hostCtx) Role() ids.RoleRef { return rc.role }
func (rc *hostCtx) Index() int        { return rc.role.Index }

// PID returns the role's own name: the monitor supervisor does not track
// process identities.
func (rc *hostCtx) PID() ids.PID { return ids.PID(rc.role.String()) }

func (rc *hostCtx) Performance() int { return rc.perf }

func (rc *hostCtx) mailboxOf(r ids.RoleRef) (*mailbox, error) {
	mb, ok := rc.host.mailboxes[r]
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownRole, r)
	}
	return mb, nil
}

func (rc *hostCtx) Send(to ids.RoleRef, v any) error { return rc.SendTag(to, "", v) }

func (rc *hostCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	mb, err := rc.mailboxOf(to)
	if err != nil {
		return err
	}
	mb.put(message{from: rc.role, tag: tag, val: v})
	return nil
}

// SendAll deposits v into each target's mailbox in turn; under the mailbox
// scheme a send only blocks while the peer's box is full, so the serial loop
// is already cheap.
func (rc *hostCtx) SendAll(tos []ids.RoleRef, v any) error { return core.SendEach(rc, tos, v) }

func (rc *hostCtx) Recv(from ids.RoleRef) (any, error) { return rc.RecvTag(from, "") }

func (rc *hostCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	if _, err := rc.mailboxOf(from); err != nil {
		return nil, err // unknown sender would block forever
	}
	mb, err := rc.mailboxOf(rc.role)
	if err != nil {
		return nil, err
	}
	m := mb.get(func(m message) bool { return m.from == from && m.tag == tag })
	return m.val, nil
}

func (rc *hostCtx) RecvAny() (ids.RoleRef, string, any, error) {
	mb, err := rc.mailboxOf(rc.role)
	if err != nil {
		return ids.RoleRef{}, "", nil, err
	}
	m := mb.get(func(message) bool { return true })
	return m.from, m.tag, m.val, nil
}

// Select supports receive-only alternatives (a WAIT UNTIL over the union of
// the branch predicates). Send branches are rejected: one monitor cannot
// wait on room in another monitor's mailbox.
func (rc *hostCtx) Select(branches ...core.SelectBranch) (core.Selected, error) {
	receives := false
	for _, b := range branches {
		if !b.Enabled() {
			continue
		}
		if b.IsSend() {
			return core.Selected{}, fmt.Errorf("%w: select with send branches", ErrUnsupported)
		}
		if peer, anyPeer := b.BranchPeer(); !anyPeer {
			if _, err := rc.mailboxOf(peer); err != nil {
				return core.Selected{}, err
			}
		}
		receives = true
	}
	if !receives {
		return core.Selected{}, core.ErrNoBranches
	}
	mb, err := rc.mailboxOf(rc.role)
	if err != nil {
		return core.Selected{}, err
	}
	idx := -1
	m := mb.get(func(m message) bool {
		idx = slices.IndexFunc(branches, func(b core.SelectBranch) bool { return b.Accepts(m.from, m.tag) })
		return idx >= 0
	})
	return core.Selected{Index: idx, Peer: m.from, Tag: m.tag, Val: m.val}, nil
}

// Terminated reports whether the role has finished in the current
// performance. The "will not be filled" half of the paper's predicate is
// not supported: the monitor embedding has no critical role sets.
func (rc *hostCtx) Terminated(r ids.RoleRef) bool {
	rc.host.sup.Enter()
	defer rc.host.sup.Leave()
	return rc.host.done[r]
}

// Filled reports whether r has enrolled in the current performance.
func (rc *hostCtx) Filled(r ids.RoleRef) bool {
	rc.host.sup.Enter()
	defer rc.host.sup.Leave()
	return rc.host.filled[r]
}

// FamilySize returns the declared extent of a fixed family.
func (rc *hostCtx) FamilySize(name string) int { return rc.host.def.FamilyExtent(name) }
