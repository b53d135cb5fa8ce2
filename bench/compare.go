package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Spec is the part of BENCHMARK.json the comparison reads.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric entry of BENCHMARK.json. Bound is absent for
// per-layer metrics.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// ReadResults loads a results file: one Result per line, as runs append
// them.
func ReadResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the three quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// verdict classifies a change (B) against its parent (A) following the
// choosing-metrics rules: improved when B wins at least 9/10 of the
// pairs and the medians are further apart than A's interquartile range;
// regressed when B's median is worse than A's by more than the bound;
// unresolved when the spread exceeds the bound and B does not read better
// on every run; otherwise unchanged. Without a bound (per-layer metrics)
// a move in either direction needs the same 9/10 evidence.
func verdict(a, b []float64, higher bool, bound *float64) (string, float64) {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	pairs := min(len(a), len(b))
	wonB, wonA := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wonB++
		case better(a[i], b[i]):
			wonA++
		}
	}
	shareB := float64(wonB) / float64(max(pairs, 1))
	apart := math.Abs(mb-ma) > q3a-q1a
	if better(mb, ma) && apart && wonB*10 >= 9*pairs {
		return "improved", shareB
	}
	if bound == nil {
		if better(ma, mb) && apart && wonA*10 >= 9*pairs {
			return "regressed", shareB
		}
		return "unchanged", shareB
	}
	worse := relWorse(ma, mb, higher)
	if worse > *bound {
		return "regressed", shareB
	}
	if spread(q1a, ma, q3a) > *bound || spread(q1b, mb, q3b) > *bound {
		allBetter := true
		for _, y := range b {
			for _, x := range a {
				allBetter = allBetter && better(y, x)
			}
		}
		if !allBetter {
			return "unresolved", shareB
		}
	}
	return "unchanged", shareB
}

// relWorse is how much worse b is than a, as a share of a.
func relWorse(a, b float64, higher bool) float64 {
	d := b - a
	if higher {
		d = -d
	}
	if a == 0 {
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(a)
}

func spread(q1, m, q3 float64) float64 {
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// Compare prints, for each workload and metric present in both result
// sets, each side's median and quartiles, the share of pairs B won and
// the verdict. Runs pair up in file order.
func Compare(w io.Writer, spec *Spec, a, b []Result) {
	values := func(rs []Result, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if r.Workload != workload {
				continue
			}
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			} else if m, ok := r.PerLayer[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var workloads []string
	seen := map[string]bool{}
	for _, r := range a {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	fmt.Fprintf(w, "%-10s %-30s %-30s %-30s %6s %8s %6s %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range append(append([]SpecMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			va, vb := values(a, wl, d.Name), values(b, wl, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			higher := d.Better == "higher"
			v, share := verdict(va, vb, higher, d.Bound)
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			bound := "-"
			if d.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", *d.Bound*100)
			}
			fmt.Fprintf(w, "%-10s %-30s %-30s %-30s %5.0f%% %+7.1f%% %6s %s\n", wl, d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, q1a, q3a),
				fmt.Sprintf("%.4g [%.4g, %.4g]", mb, q1b, q3b),
				share*100, 100*relWorse(ma, mb, false), bound, v)
		}
	}
}
