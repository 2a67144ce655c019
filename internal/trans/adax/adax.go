// Package adax implements the paper's translation of scripts into Ada
// (Section IV, Figures 9–11), as a runtime-level construction:
//
//   - each role r_j becomes a task ŝ_r_j with start and stop entries; the
//     enrollment "ENROLL IN s AS r(in, out)" is replaced by the entry-call
//     pair ŝ_r.start(in); ŝ_r.stop(out);
//   - a supervisor task with start/stop entry families (indexed by role
//     number) coordinates performances, enforcing successive activations;
//   - role bodies run inside the role tasks, with inter-role communications
//     becoming entry calls on the peer role tasks ("calls to role entry
//     rj.x(y,z) become calls to task entry ŝ_rj.x(y,z)").
//
// The paper names the costs of this translation, which this package
// reproduces measurably: the process count grows from n to n+m+1, the role
// execution moves off the enrolling processor (here: off the enrolling
// goroutine), and the role tasks loop forever — here bounded by Ada's
// terminate alternative so programs can still shut down collectively.
//
// Ada restrictions are honoured: "selections between alternative entries
// are allowed, but not selections between alternative calls", so a script
// Select mixing send branches with receive branches fails with
// ErrUnsupported (the reason Figure 8's broadcast is reversed).
package adax

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/scriptabs/goscript/internal/ada"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// Errors reported by the translation.
var (
	// ErrUnsupported reports a script feature the Ada translation cannot
	// express.
	ErrUnsupported = errors.New("adax: feature not supported by the Ada translation")
	// ErrNotStarted reports an enrollment before Start.
	ErrNotStarted = errors.New("adax: host not started")
)

// Host is the Ada-side embedding of one script instance: the supervisor
// task plus one task per role (m+1 tasks).
type Host struct {
	def   core.Definition
	prog  *ada.Program
	tasks map[ids.RoleRef]*roleTask
	roles []ids.RoleRef

	mu      sync.Mutex
	caller  *ada.Caller
	started bool
}

type roleTask struct {
	host  *Host
	role  ids.RoleRef
	num   int // 1-based role number j
	task  *ada.Task
	start *ada.Entry
	stop  *ada.Entry
	msg   *ada.Entry

	mu   sync.Mutex
	perf int
}

// New builds the translated program for def: a supervisor task with
// start/stop entry families and one task per role. Open-ended families are
// rejected.
func New(def core.Definition) (*Host, error) {
	if def.HasOpenFamilies() {
		return nil, fmt.Errorf("%w: open-ended families", ErrUnsupported)
	}
	h := &Host{
		def:   def,
		prog:  ada.NewProgram(),
		tasks: make(map[ids.RoleRef]*roleTask),
		roles: def.Roles(),
	}
	m := len(h.roles)

	sup := h.prog.Task("sup_"+def.Name(), nil)
	supStart := sup.EntryFamily("start", m)
	supStop := sup.EntryFamily("stop", m)
	sup.SetBody(func(tk *ada.Task) error {
		started := make([]bool, m+1)
		stopped := make([]bool, m+1)
		reset := func() {
			for j := 1; j <= m; j++ {
				if !started[j] || !stopped[j] {
					return
				}
			}
			for j := 1; j <= m; j++ {
				started[j], stopped[j] = false, false
			}
		}
		return tk.Serve(func() []ada.Alt {
			alts := make([]ada.Alt, 0, 2*m+1)
			for j := 1; j <= m; j++ {
				j := j
				alts = append(alts,
					ada.Accepting(supStart[j-1], func([]any) ([]any, error) {
						started[j] = true
						return nil, nil
					}).When(!started[j]),
					ada.Accepting(supStop[j-1], func([]any) ([]any, error) {
						stopped[j] = true
						reset()
						return nil, nil
					}).When(started[j] && !stopped[j]),
				)
			}
			return append(alts, ada.Terminate())
		})
	})

	for j, role := range h.roles {
		j, role := j+1, role
		rt := &roleTask{host: h, role: role, num: j}
		task := h.prog.Task("s_"+role.String(), nil)
		rt.task = task
		rt.start = task.Entry("start")
		rt.stop = task.Entry("stop")
		rt.msg = task.Entry("msg")
		body, err := def.Body(role)
		if err != nil {
			return nil, err
		}
		task.SetBody(func(tk *ada.Task) error {
			for {
				var ins []any
				idx, err := tk.Select(
					ada.Accepting(rt.start, func(callIns []any) ([]any, error) {
						ins = callIns
						return nil, nil
					}),
					ada.Terminate(),
				)
				if err != nil {
					if errors.Is(err, ada.ErrTerminated) {
						return nil
					}
					return err
				}
				if idx != 0 {
					return nil
				}
				if _, err := supStart[j-1].Call(tk.Context()); err != nil {
					return fmt.Errorf("supervisor start(%d): %w", j, err)
				}
				rt.mu.Lock()
				rt.perf++
				rt.mu.Unlock()
				rc := &hostCtx{ParamBag: core.ParamBag{In: ins}, rt: rt, tk: tk}
				bodyErr := core.RunBody(body, rc)
				if _, err := supStop[j-1].Call(tk.Context()); err != nil {
					return fmt.Errorf("supervisor stop(%d): %w", j, err)
				}
				if bodyErr != nil {
					bodyErr = &core.RoleError{Script: def.Name(), Role: role, Err: bodyErr}
				}
				// The stop rendezvous returns the out parameters (and the
				// body's error, which Ada would raise in both tasks).
				_ = tk.Accept(rt.stop, func([]any) ([]any, error) {
					return rc.Out, bodyErr
				})
			}
		})
		h.tasks[role] = rt
	}
	return h, nil
}

// TaskCount returns the number of tasks the translation created (m+1): the
// growth the paper calls out ("the number of processes grows from n … to
// n+m+1 in the translation").
func (h *Host) TaskCount() int { return len(h.roles) + 1 }

// Start activates the translated program. The host holds an external-caller
// registration so the tasks do not terminate collectively while enrollments
// may still arrive; Shutdown releases it.
func (h *Host) Start(ctx context.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.started {
		return errors.New("adax: host already started")
	}
	h.caller = h.prog.ExternalCaller()
	if err := h.prog.Start(ctx); err != nil {
		h.caller.Done()
		return err
	}
	h.started = true
	return nil
}

// Shutdown lets the tasks terminate collectively and waits for them.
func (h *Host) Shutdown() error {
	h.mu.Lock()
	caller, started := h.caller, h.started
	h.mu.Unlock()
	if !started {
		return ErrNotStarted
	}
	caller.Done()
	return h.prog.Wait()
}

// Enroll performs the translated enrollment: the entry-call pair
// start(args); stop() on the role's task. It blocks until the role body has
// run inside the role task — note that, unlike the native runtime, the body
// does NOT run in the caller's goroutine (the paper: "this growth makes it
// difficult to associate the execution of a role with the same processor
// that enrolls in the script").
func (h *Host) Enroll(ctx context.Context, role ids.RoleRef, args []any) ([]any, error) {
	h.mu.Lock()
	started := h.started
	h.mu.Unlock()
	if !started {
		return nil, ErrNotStarted
	}
	rt, ok := h.tasks[role]
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrUnknownRole, role)
	}
	if _, err := rt.start.Call(ctx, args...); err != nil {
		return nil, fmt.Errorf("adax: start entry: %w", err)
	}
	outs, err := rt.stop.Call(ctx)
	return outs, err
}
