package server

import (
	"fmt"
	"time"

	"autopipe"
)

// startWatchdog launches the stuck-job scanner once. It scans four
// times per quiet period.
func (r *Registry) startWatchdog() {
	if r.opts.WatchdogQuiet <= 0 {
		return
	}
	r.watchOnce.Do(func() {
		go func() {
			poll := r.opts.WatchdogQuiet / 4
			if poll <= 0 {
				poll = time.Second
			}
			t := time.NewTicker(poll)
			defer t.Stop()
			for {
				select {
				case <-r.stopWatch:
					return
				case <-t.C:
					r.watchdogScan(r.now())
				}
			}
		}()
	})
}

// watchdogScan cancels running jobs whose iteration count has not
// advanced within the quiet period and marks them failed with the
// reason. Paused jobs (minority mode) are exempt — frozen virtual time
// is not a stall. Factored out of the ticker loop for deterministic
// tests.
func (r *Registry) watchdogScan(now time.Time) {
	var kill []*autopipe.Job
	for _, m := range r.snapshot() {
		j := m.current()
		if j == nil {
			continue
		}
		if j.Paused() {
			m.mu.Lock()
			m.lastProgress = now
			m.mu.Unlock()
			continue
		}
		st := j.Status()
		if st.State != autopipe.JobRunning {
			continue
		}
		m.mu.Lock()
		if m.overrideReason != "" || m.job == nil { // already killed, or finished since
			m.mu.Unlock()
			continue
		}
		if st.Iteration != m.lastIter || m.lastProgress.IsZero() {
			m.lastIter = st.Iteration
			m.lastProgress = now
			m.mu.Unlock()
			continue
		}
		quiet := now.Sub(m.lastProgress)
		if quiet < r.opts.WatchdogQuiet {
			m.mu.Unlock()
			continue
		}
		m.overrideState = autopipe.JobFailed
		m.overrideReason = fmt.Sprintf("watchdog: no progress for %s (stuck at iteration %d)",
			quiet.Truncate(time.Millisecond), st.Iteration)
		m.mu.Unlock()
		kill = append(kill, j)
	}
	if len(kill) > 0 {
		r.count(&r.counters.WatchdogKills, int64(len(kill)))
	}
	for _, j := range kill {
		j.Cancel()
	}
}
