package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference sandbox is a guest whose hypervisor now and then gives its
// CPUs to someone else for minutes: in one recorded spell of 200 s a
// set-up took 16 s instead of 3.3 and the closed loop ran at a ninth of
// its speed. The kernel counts that as steal time, which has nothing to do
// with the program under test, so an untraced run looks at it before each
// timed section and, while the CPUs are being taken away, waits. A spell
// that starts in the middle of a section still spoils that run; the next
// one then starts after it instead of inside it, and one spoilt run in ten
// leaves the quartiles alone where two do not.
const (
	calmWindow = 200 * time.Millisecond // how long the CPUs are kept busy to see whether they are taken away
	calmShare  = 0.05                   // stolen share of that window above which the machine is not calm
	// calmBudget bounds the waiting of one run: a run that waits this long
	// and is then still slowed fivefold ends inside a driver's 180 s.
	calmBudget = 50 * time.Second
)

// parseStolen extracts the steal column of /proc/stat's first line, in
// USER_HZ ticks of 10 ms.
func parseStolen(stat string) (time.Duration, bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}

// stolen is the CPU time the hypervisor has kept from this guest since
// boot, summed over CPUs; false where the kernel does not say.
func stolen() (time.Duration, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	return parseStolen(string(data))
}

// stolenShare keeps every CPU busy for calmWindow — an idle guest has
// nothing stolen from it — and returns the share of that CPU time the
// hypervisor took.
func stolenShare() float64 {
	before, ok := stolen()
	if !ok {
		return 0
	}
	cpus := runtime.NumCPU()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cpus; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < calmWindow {
			}
		}()
	}
	wg.Wait()
	after, _ := stolen()
	return float64(after-before) / float64(time.Since(start)*time.Duration(cpus))
}

// calm is one run's allowance for waiting out stolen CPUs.
type calm struct {
	left   time.Duration
	waited time.Duration
}

// await returns once the CPUs are not being taken away, or the run's
// allowance is spent.
func (c *calm) await() {
	for stolenShare() >= calmShare && c.left > 0 {
		time.Sleep(time.Second)
		c.left -= time.Second + calmWindow
		c.waited += time.Second + calmWindow
	}
}
