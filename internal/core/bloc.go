package core

import (
	"context"
	"errors"
	"fmt"
	"maps"

	"github.com/scriptabs/goscript/internal/ids"
)

// EnrollBloc enrolls several processes jointly — the paper's "suggestive
// idea … to allow the en bloc enrollment of an array of processes to an
// array of roles" (Section IV). All enrollments of the bloc are guaranteed
// to land in the *same* performance: the implementation adds mutual
// partner constraints (each member names every other member's role and
// PID), so the matcher can only bind them together.
//
// Each member's role body runs in its own goroutine spawned here; the
// caller stands for the whole array of processes and blocks until every
// member is released. Results are returned in input order. If any member
// fails, EnrollBloc still waits for the rest and returns the joined errors.
//
// Bloc members must have distinct PIDs and distinct roles. Non-members may
// still join the same performance in other roles (the constraints bind the
// bloc's roles only).
func (in *Instance) EnrollBloc(ctx context.Context, members []Enrollment) ([]Result, error) {
	bound, err := BindBloc(members)
	if err != nil {
		return nil, err
	}

	type outcome struct {
		idx int
		res Result
		err error
	}
	ch := make(chan outcome, len(bound))
	for i, m := range bound {
		go func() {
			res, err := in.Enroll(ctx, m)
			ch <- outcome{idx: i, res: res, err: err}
		}()
	}
	results := make([]Result, len(bound))
	var errs []error
	for range bound {
		o := <-ch
		results[o.idx] = o.res
		if o.err != nil {
			errs = append(errs, fmt.Errorf("bloc member %s: %w", bound[o.idx].PID, o.err))
		}
	}
	return results, errors.Join(errs...)
}

// BindBloc is what makes a bloc of members, for whoever enrolls it (here, or
// at a remote host): it checks that the bloc is not empty and that its
// members have PIDs, distinct ones, and distinct roles, and returns a copy in
// which every member requires every other member's role to be played by that
// member's PID, on top of the constraints the caller gave it.
func BindBloc(members []Enrollment) ([]Enrollment, error) {
	if len(members) == 0 {
		return nil, errors.New("script: empty bloc")
	}
	seenPID := make(map[ids.PID]bool, len(members))
	seenRole := make(map[ids.RoleRef]bool, len(members))
	for _, m := range members {
		if m.PID == ids.NoPID {
			return nil, errors.New("script: bloc member has empty PID")
		}
		if seenPID[m.PID] {
			return nil, fmt.Errorf("script: bloc PIDs must be distinct (%s)", m.PID)
		}
		if seenRole[m.Role] {
			return nil, fmt.Errorf("script: bloc roles must be distinct (%s)", m.Role)
		}
		seenPID[m.PID] = true
		seenRole[m.Role] = true
	}
	bound := make([]Enrollment, len(members))
	for i, m := range members {
		with := make(map[ids.RoleRef]ids.PIDSet, len(members)-1+len(m.With))
		maps.Copy(with, m.With)
		for _, other := range members {
			if other.PID == m.PID {
				continue
			}
			with[other.Role] = ids.NewPIDSet(other.PID)
		}
		m.With = with
		bound[i] = m
	}
	return bound, nil
}
