// Hostlang: the paper's Section IV in one program — the *same* star
// broadcast script definition, and the same cast, performed on four
// runtimes: the native Go runtime, the CSP translation (supervisor process
// p_s), the Ada translation (role tasks with start/stop entries plus a
// supervisor task), and the monitor embedding (one mailbox monitor per
// role). The four runners are internal/trans/equiv's, the ones the
// equivalence suite compares.
//
//	go run ./examples/hostlang
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/trans/equiv"
)

const n = 3

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	def := patterns.StarBroadcast(n)
	fmt.Printf("one script definition (%q), four hosts:\n\n", def.Name())

	cast := func(sent string) []equiv.Part {
		return equiv.Broadcast(n, func(int) any { return sent })
	}
	report := func(host string, cast []equiv.Part, outs equiv.Outs, err error) {
		if err != nil {
			log.Fatalf("%s %v", host, err)
		}
		values := make([]any, n)
		for i, p := range cast[1:] {
			values[i] = outs[p.Role][0][0]
		}
		fmt.Printf("%-18s recipients received %v\n", host, values)
	}

	c := cast("native")
	outs, err := equiv.Native(ctx, def, c, 1)
	report("native runtime:", c, outs, err)

	c = cast("csp")
	outs, _, err = equiv.CSP(ctx, def, c, 1)
	report("CSP translation:", c, outs, err)

	c = cast("ada")
	outs, ada, err := equiv.Ada(ctx, def, c, 1)
	tasks := "Ada:"
	if ada != nil {
		tasks = fmt.Sprintf("Ada (%d tasks):", ada.TaskCount())
	}
	report(tasks, c, outs, err)

	c = cast("monitors")
	outs, _, err = equiv.Monitors(ctx, def, c, 1)
	report("monitor mailboxes:", c, outs, err)
}
