package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its host with other tenants, whose load changes
// how fast the same code runs by tens of percent from one minute to the
// next. A fixed calibration loop, timed in thread CPU time throughout
// each run, measures that speed; the run's times and CPU costs are then
// reported at a reference speed (see Result.normalize). The loop mixes the
// standard-library work the daemon itself is made of — JSON encoding
// and decoding, string-keyed maps, sorting, small allocations — because
// such a loop tracks the daemon's own slow-downs (over 5 s windows its
// CPU time moved with a job's at slope 1.0, correlation 0.96), while a
// register-only loop does not. It uses no code of the repository, so a
// change to the system cannot move it.

// probeRef is the reference speed: the calibration loop's CPU time on a
// host at reference speed.
const probeRef = time.Millisecond

// probeEvery is the calibration period (about 2% of one core).
const probeEvery = 50 * time.Millisecond

type probeRecord struct {
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Tags  map[string]string `json:"tags"`
	Inner []struct{ A, B int }
}

var probeRecords = func() []probeRecord {
	out := make([]probeRecord, 40)
	for i := range out {
		out[i].Name = fmt.Sprintf("job-%04d", i)
		out[i].Vals = []float64{1.5, 2.25, float64(i) / 3, 1e9 / float64(i+1)}
		out[i].Tags = map[string]string{"a": "x", "b": strconv.Itoa(i)}
		out[i].Inner = make([]struct{ A, B int }, 8)
	}
	return out
}()

// probeSink keeps the calibration loop's results live.
var probeSink int

// calibrate is one pass of the calibration loop.
func calibrate() {
	b, err := json.Marshal(probeRecords)
	if err != nil {
		panic(err) // a fixed value of plain types always encodes
	}
	var back []probeRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	m := map[string]int{}
	for i := 0; i < 2000; i++ {
		m[back[i%len(back)].Name+strconv.Itoa(i&255)] += i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	probeSink += len(keys) + len(b)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedProbe runs the calibration loop until stopped.
type speedProbe struct {
	stop    chan struct{}
	samples chan []time.Duration
	once    sync.Once
	result  float64
}

// startProbe starts the calibration loop. Like the generator it carries
// the pprof label role=gen, so a traced run does not charge it to the
// daemons.
func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), samples: make(chan []time.Duration, 1)}
	go pprof.Do(context.Background(), pprof.Labels("role", "gen"), func(context.Context) {
		runtime.LockOSThread() // thread CPU time must be this goroutine's alone
		defer runtime.UnlockOSThread()
		var xs []time.Duration
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.samples <- xs
				return
			case <-t.C:
			}
			start := threadCPU()
			calibrate()
			xs = append(xs, threadCPU()-start)
		}
	})
	return p
}

// vmTimes is the machine's CPU time so far, from the first line of
// /proc/stat in clock ticks: busy (user, nice, system, irq, softirq) and
// steal, the time its CPUs were ready to run but the hypervisor ran
// another tenant. Thread CPU time cannot see steal, so the speed probe
// misses it; latencies pay it in full.
type vmTimes struct{ busy, steal int64 }

func readVMTimes() (vmTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return vmTimes{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return vmTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return vmTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stealShare is the share of the time the CPUs wanted between a and b
// that the hypervisor took.
func stealShare(a, b vmTimes) float64 {
	steal := b.steal - a.steal
	if want := b.busy - a.busy + steal; want > 0 {
		return float64(steal) / float64(want)
	}
	return 0
}

// slowdown stops the probe (on its first call) and returns the host's
// speed relative to the reference: the calibration loop's median CPU time
// over probeRef (above 1 = slower than the reference).
func (p *speedProbe) slowdown() float64 {
	p.once.Do(func() {
		close(p.stop)
		xs := <-p.samples
		p.result = 1
		if len(xs) > 0 {
			f := make([]float64, len(xs))
			for i, x := range xs {
				f[i] = float64(x)
			}
			p.result = quantile(f, 0.5) / float64(probeRef)
		}
	})
	return p.result
}
