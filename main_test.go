package script_test

import (
	"fmt"
	"os"
	"testing"

	"github.com/scriptabs/goscript/internal/metrics"
)

// TestMain fails a run in which a remote host met a stream event its
// transition table rules out: the soaks drive hand-offs into races no unit
// test names, and the host, tearing the session down, would otherwise leave
// only an error class the soak allows.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := metrics.Get(metrics.RemoteStreamViolations).Load(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "remote hosts met %d stream events their table rules out\n", n)
		code = 1
	}
	os.Exit(code)
}
