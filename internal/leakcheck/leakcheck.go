// Package leakcheck checks goroutine lifetimes at run time: a package
// whose code starts goroutines ends its test binary with Check, which
// fails the run if any goroutine is still executing this module's
// non-test code once the tests are done. Only _test.go files import it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Grace bounds how long Check waits for goroutines already on their way
// out (a reader whose connection was just closed, a cancelled worker).
const Grace = 2 * time.Second

// Check is the last call of a TestMain:
//
//	os.Exit(leakcheck.Check(m.Run()))
//
// It polls, for at most Grace, until no goroutine but the caller's has a
// frame in a non-test file of module yosompc, and then returns code. If
// some still do, it writes their stacks to os.Stderr and returns code, or 1
// when code is 0.
func Check(code int) int {
	deadline := time.Now().Add(Grace)
	for {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		var leaked []string
		// The first record is the caller's own goroutine.
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			lines := strings.Split(g, "\n")
			// A frame is a function line followed by a "\tfile:line" line;
			// the trailing "created by" frame is the spawn site, not running.
			for i := 1; i+1 < len(lines) && !strings.HasPrefix(lines[i], "created by "); i++ {
				file, _, _ := strings.Cut(strings.TrimSpace(lines[i+1]), ":")
				if strings.HasPrefix(lines[i], "yosompc") && !strings.HasSuffix(file, "_test.go") {
					leaked = append(leaked, g)
					break
				}
			}
		}
		if len(leaked) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running non-test code after %v:\n\n%s",
				len(leaked), Grace, strings.Join(leaked, "\n\n"))
			return max(code, 1)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
