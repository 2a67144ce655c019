package remote_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// TestBindBlocLocalAndRemote runs one table of what core.BindBloc decides
// against the two things that enroll a bloc, an Instance and an Enroller at a
// host serving it, so the two cannot come to disagree about what a bloc is.
func TestBindBlocLocalAndRemote(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	_, addr := startHost(t, in, remote.HostConfig{})
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{})
	defer enr.Close()
	sides := []struct {
		name string
		bloc func(context.Context, []core.Enrollment) ([]core.Result, error)
	}{
		{"Instance", in.EnrollBloc},
		{"Enroller", enr.EnrollBloc},
	}

	sender, r1, r2 := ids.Role(patterns.RoleSender), ids.Member(patterns.RoleRecipient, 1), ids.Member(patterns.RoleRecipient, 2)
	send := func(pid ids.PID) core.Enrollment {
		return core.Enrollment{PID: pid, Role: sender, Args: []any{"x"}, Body: senderBody(2)}
	}
	recv := func(pid ids.PID, role ids.RoleRef) core.Enrollment {
		return core.Enrollment{PID: pid, Role: role, Body: recipientBody(role.Index)}
	}
	rejected := []struct {
		name    string
		members []core.Enrollment
	}{
		{"empty bloc", nil},
		{"empty PID", []core.Enrollment{send("S"), recv("", r1)}},
		{"duplicate PID", []core.Enrollment{send("P"), recv("P", r1)}},
		{"duplicate role", []core.Enrollment{recv("A", r1), recv("B", r1)}},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, side := range sides {
		t.Run(side.name, func(t *testing.T) {
			for _, row := range rejected {
				if _, err := side.bloc(ctx, row.members); err == nil {
					t.Errorf("%s: enrolled", row.name)
				}
			}
			if n := in.PendingOffers(); n != 0 {
				t.Fatalf("%d offers made by blocs that are none", n)
			}

			// The constraint a member came with holds beside the ones the bloc
			// adds: the sender wants recipient[2] played by "wanted", so the
			// "unwanted" that offered the role first is passed over.
			unwanted, withdraw := context.WithCancel(ctx)
			defer withdraw()
			passedOver := make(chan error, 1)
			go func() {
				_, err := in.Enroll(unwanted, recv("unwanted", r2))
				passedOver <- err
			}()
			waitCond(t, "the unwanted offer", func() bool { return in.PendingOffers() == 1 })
			s := send("S")
			s.With = map[ids.RoleRef]ids.PIDSet{r2: ids.NewPIDSet("wanted")}
			blocDone := make(chan error, 1)
			go func() {
				_, err := side.bloc(ctx, []core.Enrollment{s, recv("R1", r1)})
				blocDone <- err
			}()
			waitCond(t, "the bloc's offers", func() bool { return in.PendingOffers() == 3 })
			if _, err := in.Enroll(ctx, recv("wanted", r2)); err != nil {
				t.Fatalf("wanted: %v", err)
			}
			if err := <-blocDone; err != nil {
				t.Fatalf("bloc: %v", err)
			}
			withdraw()
			if err := <-passedOver; !errors.Is(err, context.Canceled) {
				t.Fatalf("unwanted: %v, want its offer still pending when withdrawn", err)
			}
		})
	}
}
