package patterns

import (
	"context"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// Role names of the bounded-buffer script.
const (
	RoleProducer = "producer"
	RoleConsumer = "consumer"
	RoleBuffer   = "buffer"
)

// BoundedBuffer builds a producer/buffer/consumer script — one of the
// "various buffering regimes" the paper's introduction names as a natural
// communication abstraction. One performance streams the producer's items
// through a buffer of the given capacity to the consumer, hiding the
// buffering discipline from both.
//
// Producer data parameters: the items to stream (all of Args).
// Consumer results: the items received, in order.
// The buffer role is part of the script body's machinery; the process
// enrolling in it needs no data.
func BoundedBuffer(capacity int) core.Definition {
	if capacity < 1 {
		capacity = 1
	}
	producer := ids.Role(RoleProducer)
	consumer := ids.Role(RoleConsumer)
	buffer := ids.Role(RoleBuffer)
	// The consumer's alternative never changes: one list per definition.
	itemOrEOF := []core.SelectBranch{
		core.RecvTagFrom(buffer, "item"),
		core.RecvTagFrom(buffer, "eof"),
	}

	return core.NewScript("bounded_buffer").
		Role(RoleProducer, func(rc core.Ctx) error {
			for i := 0; i < rc.NumArgs(); i++ {
				if err := rc.SendTag(buffer, "item", rc.Arg(i)); err != nil {
					return fmt.Errorf("produce item %d: %w", i, err)
				}
			}
			return rc.SendTag(buffer, "eof", nil)
		}).
		Role(RoleBuffer, func(rc core.Ctx) error {
			var queue []any
			done := false
			// One list per performance: each trip rewrites the guards and the
			// value on offer in place.
			alt := []core.SelectBranch{
				core.RecvTagFrom(producer, "item"),
				core.RecvTagFrom(producer, "eof"),
				core.SendTagTo(consumer, "item", nil),
			}
			for !done || len(queue) > 0 {
				var head any
				if len(queue) > 0 {
					head = queue[0]
				}
				alt[0] = alt[0].When(!done && len(queue) < capacity)
				alt[1] = alt[1].When(!done)
				alt[2] = core.SendTagTo(consumer, "item", head).When(len(queue) > 0)
				sel, err := rc.Select(alt...)
				if err != nil {
					return fmt.Errorf("buffer: %w", err)
				}
				switch sel.Index {
				case 0:
					queue = append(queue, sel.Val)
				case 1:
					done = true
				case 2:
					queue = queue[1:]
				}
			}
			return rc.SendTag(consumer, "eof", nil)
		}).
		Role(RoleConsumer, func(rc core.Ctx) error {
			var got []any
			for {
				sel, err := rc.Select(itemOrEOF...)
				if err != nil {
					return fmt.Errorf("consume: %w", err)
				}
				if sel.Index == 1 {
					rc.Return(got...)
					return nil
				}
				got = append(got, sel.Val)
			}
		}).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
}

// Produce enrolls pid as the producer streaming the given items.
func Produce(ctx context.Context, in *core.Instance, pid ids.PID, items ...any) error {
	_, err := in.Enroll(ctx, core.Enrollment{PID: pid, Role: ids.Role(RoleProducer), Args: items})
	return err
}

// Consume enrolls pid as the consumer and returns the streamed items.
func Consume(ctx context.Context, in *core.Instance, pid ids.PID) ([]any, error) {
	res, err := in.Enroll(ctx, core.Enrollment{PID: pid, Role: ids.Role(RoleConsumer)})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// RunBuffer enrolls pid as the buffer role for one performance.
func RunBuffer(ctx context.Context, in *core.Instance, pid ids.PID) error {
	_, err := in.Enroll(ctx, core.Enrollment{PID: pid, Role: ids.Role(RoleBuffer)})
	return err
}
