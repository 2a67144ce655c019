package patterns

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/locktable"
)

// Role names of the lock-manager script (Figure 5).
const (
	RoleManager = "manager"
	RoleReader  = "reader"
	RoleWriter  = "writer"
)

// Message tags between the client roles and the managers.
const (
	tagLock    = "lock"
	tagRelease = "release"
	tagReply   = "reply"
)

// Request is the payload of the reader/writer roles' data parameters and of
// the lock/release messages: "readers and writers can request or release
// locks on data items".
type Request struct {
	// Owner is the requesting processor's unique identifier (the paper:
	// locks must "be identified unambiguously").
	Owner locktable.Owner
	// Item is the data item; under the multiple-granularity strategy it is
	// a slash-separated path in the granularity tree.
	Item string
	// Release requests releasing the item instead of locking it.
	Release bool
}

// LockStrategy selects one of the locking regimes the paper says the script
// can hide: "lock one node to read, all nodes to write", "lock a majority
// of nodes to read or write", or "multiple granularity locking as described
// by Korth".
type LockStrategy struct {
	// Name labels the strategy (used in the script name).
	Name string
	// ReadQuorum and WriteQuorum give the number of manager grants a
	// reader/writer needs among k managers.
	ReadQuorum  func(k int) int
	WriteQuorum func(k int) int
	// Granular switches the managers to multiple-granularity tables with
	// intention locks; Item is then interpreted as a hierarchy path.
	Granular bool
}

// OneReadAllWrite is Figure 5's regime: one lock to read, k locks to write.
func OneReadAllWrite() LockStrategy {
	return LockStrategy{
		Name:        "one_read_all_write",
		ReadQuorum:  func(k int) int { return 1 },
		WriteQuorum: func(k int) int { return k },
	}
}

// MajorityLocking locks a majority of nodes to read or write.
func MajorityLocking() LockStrategy {
	maj := func(k int) int { return k/2 + 1 }
	return LockStrategy{Name: "majority", ReadQuorum: maj, WriteQuorum: maj}
}

// MultiGranularity is Korth-style multiple-granularity locking on each
// replica, with Figure 5's one-read/all-write replication regime on top.
func MultiGranularity() LockStrategy {
	return LockStrategy{
		Name:        "multi_granularity",
		ReadQuorum:  func(k int) int { return 1 },
		WriteQuorum: func(k int) int { return k },
		Granular:    true,
	}
}

// NewTable creates the per-manager lock table appropriate for the strategy.
// Each manager process owns one table and passes it to every enrollment, so
// the tables persist across performances ("we assume that the lock tables
// are preserved by such a change").
func (s LockStrategy) NewTable() locktable.Locker {
	if s.Granular {
		return locktable.NewGranularTable()
	}
	return locktable.NewTable()
}

// LockManager builds Figure 5's script: k lock-manager roles, one reader
// role, and one writer role. The critical role sets are {managers, reader}
// and {managers, writer}: "it is sufficient that all the lock-manager roles
// be filled, as well as either the reader or the writer (or both)". One
// performance serves one reader and/or one writer operation.
func LockManager(k int, strat LockStrategy) core.Definition {
	return lockScript("lock_manager_"+strat.Name, k, strat, clientBody)
}

// lockScript is Figure 5's cast and policies around a choice of client body:
// both spellings of the reader and writer (LockManager's, LockManagerGuarded's)
// meet the same managers under the same critical role sets.
func lockScript(name string, k int, strat LockStrategy, client func(k int, quorum func(int) int) core.RoleBody) core.Definition {
	managers := ids.FamilyMembers(RoleManager, k)
	with := func(client string) []ids.RoleRef {
		return append(slices.Clip(managers), ids.Role(client))
	}
	return core.NewScript(name).
		Family(RoleManager, k, managerBody()).
		Role(RoleReader, client(k, strat.ReadQuorum)).
		Role(RoleWriter, client(k, strat.WriteQuorum)).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		CriticalSet(with(RoleReader)...).
		CriticalSet(with(RoleWriter)...).
		MustBuild()
}

// managerBody serves lock/release requests from whichever of the reader and
// writer roles are present, until both have finished or were absent — the
// paper's use of r.terminated to avoid waiting on unfilled roles.
func managerBody() core.RoleBody {
	reader, writer := ids.Role(RoleReader), ids.Role(RoleWriter)
	// The manager's one alternative, the same on every trip round every
	// manager's loop: built here, once per definition, and only ever read.
	requests := []core.SelectBranch{
		core.RecvTagFrom(reader, tagLock),
		core.RecvTagFrom(reader, tagRelease),
		core.RecvTagFrom(writer, tagLock),
		core.RecvTagFrom(writer, tagRelease),
	}
	return func(rc core.Ctx) error {
		table, ok := rc.Arg(0).(locktable.Locker)
		if !ok {
			return fmt.Errorf("lock manager: manager enrolled with %T for a table, want a locktable.Locker", rc.Arg(0))
		}
		for {
			sel, err := rc.Select(requests...)
			if err != nil {
				if errors.Is(err, core.ErrRoleAbsent) || errors.Is(err, core.ErrRoleFinished) {
					return nil // both clients gone: this performance's work is done
				}
				return err
			}
			req, ok := sel.Val.(Request)
			if !ok {
				return fmt.Errorf("lock manager: bad request payload %T", sel.Val)
			}
			switch sel.Tag {
			case tagLock:
				granted := table.Lock(req.Owner, req.Item, sel.Peer == writer)
				if err := rc.SendTag(sel.Peer, tagReply, granted); err != nil {
					return fmt.Errorf("reply to %s: %w", sel.Peer, err)
				}
			case tagRelease:
				// Releasing an unheld lock is a no-op: the client broadcasts
				// releases to all managers.
				table.Release(req.Owner, req.Item)
			}
		}
	}
}

// clientBody is the shared shape of Figure 5's reader and writer roles:
// collect grants from managers until the quorum is met (or provably
// unreachable, as the paper's writer stops at the first denial), releasing
// partial grants on failure. A release request is broadcast to all
// managers.
func clientBody(k int, quorum func(int) int) core.RoleBody {
	return func(rc core.Ctx) error {
		// msg is the request as the enrollment boxed it, and what every send of
		// this body carries: a Request converted at each SendTag would be
		// boxed again each time.
		msg := rc.Arg(0)
		req, ok := msg.(Request)
		if !ok {
			return fmt.Errorf("lock client: bad request argument %T", msg)
		}
		if req.Release {
			for i := 1; i <= k; i++ {
				if err := rc.SendTag(ids.Member(RoleManager, i), tagRelease, msg); err != nil {
					return fmt.Errorf("release to manager[%d]: %w", i, err)
				}
			}
			rc.SetResult(0, true)
			return nil
		}
		need := quorum(k)
		var few [4]int // the usual quorums — one grant, or a few managers' — fit on the stack
		who := few[:0]
		for i := 1; i <= k; i++ {
			if len(who) >= need {
				break // quorum met
			}
			if len(who)+(k-i+1) < need {
				break // unreachable: stop asking, like the paper's writer
			}
			m := ids.Member(RoleManager, i)
			if err := rc.SendTag(m, tagLock, msg); err != nil {
				return fmt.Errorf("lock to manager[%d]: %w", i, err)
			}
			reply, err := rc.RecvTag(m, tagReply)
			if err != nil {
				return fmt.Errorf("reply from manager[%d]: %w", i, err)
			}
			if granted, _ := reply.(bool); granted {
				who = append(who, i)
			}
		}
		if len(who) >= need {
			rc.SetResult(0, true)
			return nil
		}
		// Denied: release the partial grants (Figure 5b/5c's DO-OD loop).
		for _, i := range who {
			if err := rc.SendTag(ids.Member(RoleManager, i), tagRelease, msg); err != nil {
				return fmt.Errorf("rollback release to manager[%d]: %w", i, err)
			}
		}
		rc.SetResult(0, false)
		return nil
	}
}

// RunManager enrolls pid as manager index for successive performances until
// ctx is cancelled or the instance closes. The caller supplies the table
// (from LockStrategy.NewTable) so it persists across performances and
// across membership changes.
func RunManager(ctx context.Context, in *core.Instance, pid ids.PID, index int, table any) error {
	e := core.Enrollment{PID: pid, Role: ids.Member(RoleManager, index), Args: []any{table}}
	for {
		_, err := in.Enroll(ctx, e) // Enroll copies what it keeps of e
		switch {
		case err == nil:
			continue
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, core.ErrClosed):
			return nil
		default:
			return err
		}
	}
}

// RequestLock enrolls pid in one performance as the reader (write=false) or
// writer (write=true) and requests a lock on item. It reports whether the
// quorum granted it.
func RequestLock(ctx context.Context, in *core.Instance, pid ids.PID, owner locktable.Owner, item string, write bool) (bool, error) {
	res, err := enrollClient(ctx, in, pid, Request{Owner: owner, Item: item}, write)
	if err != nil {
		return false, err
	}
	granted, _ := res.Values[0].(bool)
	return granted, nil
}

// ReleaseLock enrolls pid in one performance to release owner's lock on
// item at every manager.
func ReleaseLock(ctx context.Context, in *core.Instance, pid ids.PID, owner locktable.Owner, item string, write bool) error {
	_, err := enrollClient(ctx, in, pid, Request{Owner: owner, Item: item, Release: true}, write)
	return err
}

func enrollClient(ctx context.Context, in *core.Instance, pid ids.PID, req Request, write bool) (core.Result, error) {
	role := ids.Role(RoleReader)
	if write {
		role = ids.Role(RoleWriter)
	}
	return in.Enroll(ctx, core.Enrollment{PID: pid, Role: role, Args: []any{req}})
}
