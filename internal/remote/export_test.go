package remote

import (
	"runtime"
	"strings"
)

// StreamServers counts the goroutines that run a host stream's code and are
// neither a connection's reader nor an in-process enroller: the goroutines a
// host would have started to serve its streams' ops. The reader posts every op
// and whoever commits it writes its OP-RESULT, so there are none.
func StreamServers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		host := strings.Contains(g, "remote.(*hostStream)") || strings.Contains(g, "remote.(*hostSession)") || strings.Contains(g, "remote.(*bridge)")
		if host && !strings.Contains(g, "remote.(*Host).serveConn") && !strings.Contains(g, "core.(*Instance).Enroll") {
			count++
		}
	}
	return count
}
