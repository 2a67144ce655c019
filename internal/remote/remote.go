// Package remote lets an actual OS process enroll into a script served by
// another process over TCP. It is the runtime's answer to the paper's
// setting — genuinely separate processes joining a communication pattern —
// where the rest of the repository models processes as goroutines.
//
// The split preserves the paper's key property: a role body stays "a
// logical continuation of the enrolling process". The body executes in the
// client, against a Ctx whose every operation is one request/response
// exchange on the connection (see internal/wire for the framing). The
// serving process keeps all coordination state: role matching, the
// rendezvous fabric, performance deadlines, and the abort machinery.
//
//	client process                      serving process
//	──────────────                      ───────────────
//	Enroller.Enroll(e) ── ENROLL ──▶    Host: the reader offers to the target;
//	  body runs here   ◀─ OFFER-ACK ──    whoever forms the cast acknowledges;
//	  rc.Send(...)     ── SEND ──────▶    a stream worker proxies each op into
//	                   ◀─ OP-RESULT ──    the real RoleCtx and the shared fabric
//	  body returns     ── BODY-DONE ─▶    the reader ends the role
//	  released         ◀─ COMPLETE ───  written by whoever ends the role
//
// Failure maps onto the runtime's existing taxonomy (DESIGN.md "Failure
// semantics"): a connection that drops or falls silent past the host's
// heartbeat timeout mid-performance aborts that performance only, blaming
// the disconnected role — its co-performers unwind with an *AbortError
// exactly as if a local deadline had fired — and the instance accepts the
// next cast. A draining host answers new offers with DRAIN, surfaced to the
// client as ErrDraining.
package remote

import (
	"context"
	"errors"
	"time"

	"github.com/scriptabs/goscript/internal/core"
)

// Target is the script runtime a Host serves: a *core.Instance, a
// script.Pool, or anything else that admits enrollments and can drain.
type Target interface {
	// Offer places one enrollment offer and returns without waiting for it
	// (core.Instance.Offer): the Host's stream learns of the assignment, a
	// turn-away and the release through h, and performs the role with its
	// bridge as the body.
	Offer(ctx context.Context, e core.Enrollment, h core.Handoff) (core.Offered, error)
	// Drain stops admitting offers and waits for in-flight performances.
	Drain(ctx context.Context) error
	// Definition exposes the served script's definition (for its name).
	Definition() core.Definition
}

// NetFaults injects network-level faults for robustness testing; the chaos
// harness (internal/chaos) implements it. Each method is consulted at its
// fault point and must be safe for concurrent use.
type NetFaults interface {
	// FrameDelay returns extra latency to impose before a frame write
	// (0 = none).
	FrameDelay() time.Duration
	// DropConn reports whether to sever the connection now (a partition or
	// crashed peer).
	DropConn() bool
	// StallHeartbeat returns how long a client heartbeat should stall
	// before sending (long stalls trip the host's heartbeat timeout).
	StallHeartbeat() time.Duration
	// Overload reports whether the host should shed this enrollment with
	// ErrOverloaded even under its admission caps — an injected overload
	// burst. Shedding is admission-only, so the fault can never abort
	// in-flight work.
	Overload() bool
	// CutConn reports whether to sever the client's live connection now,
	// mid-operation — a transient network blip as seen from the enroller's
	// side. Unlike DropConn (consulted by the host's read loop), the cut
	// happens under in-flight client work, which is exactly what session
	// resumption exists to survive: with a resume window the blip must be
	// invisible; without one it must reproduce today's abort taxonomy.
	CutConn() bool
}

// ErrConnLost reports a remote enrollment cut short because the connection
// to the host failed.
var ErrConnLost = errors.New("script/remote: connection lost")

// ErrDialFailed reports that a connection to a host could not be
// established (TCP dial or protocol handshake). Nothing was offered, so the
// enrollment is always safe to retry; the retry policy treats it as
// retryable and the circuit breaker counts it against the host.
var ErrDialFailed = errors.New("script/remote: dial failed")

// ErrCircuitOpen reports an enrollment rejected client-side because every
// configured host's circuit breaker is open: recent attempts against them
// failed and the cooldown before the next probe has not elapsed. Nothing
// was sent, so the enrollment is safe to retry (a retry that outlasts the
// cooldown becomes the half-open probe).
var ErrCircuitOpen = errors.New("script/remote: circuit open")

// ErrNoHosts reports an enrollment attempted while a registry-backed
// enroller knows of no host serving the script — none announced yet, or
// all evicted. Nothing was sent, so the enrollment is safe to retry (a
// retry may find membership has arrived).
var ErrNoHosts = errors.New("script/remote: no hosts known")
