package bench

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Layer buckets for CPU attribution. A sample is charged to the innermost
// stack frame that belongs to an autopipe package, so map hashing or
// malloc called from netsim counts as netsim.
const (
	bucketGen     = "gen"     // samples labelled role=gen: the load generator and calibration loop
	bucketTracing = "tracing" // the benchmark's own hooks inside daemon goroutines
	bucketMisc    = "misc"    // every other autopipe/... package
	bucketOther   = "other"   // no autopipe frame: runtime, GC, net/http plumbing
)

// layerOf maps internal/<dir> to the layer name the metrics use.
var layerOf = map[string]string{
	"server": "server", "journal": "journal", "fleet": "fleet",
	"autopipe": "controller", "netsim": "netsim", "pipeline": "pipeline",
	"sim": "sim", "bwe": "bwe", "profile": "profile", "meta": "meta",
	"partition": "partition",
}

// buckets lists every CPU bucket a profile can be charged to.
var buckets = []string{
	"server", "journal", "fleet", "autopipe", "controller", "netsim", "pipeline",
	"sim", "bwe", "profile", "meta", "partition", bucketMisc, bucketOther,
	bucketTracing, bucketGen,
}

// bucketOfFunc returns the bucket of one symbolized function name, or ""
// when it is not in an autopipe package.
func bucketOfFunc(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "autopipe":
		return "autopipe"
	case pkg == "autopipe/bench" || strings.HasPrefix(pkg, "autopipe/bench/"):
		return bucketTracing
	case strings.HasPrefix(pkg, "autopipe/internal/"):
		dir, _, _ := strings.Cut(strings.TrimPrefix(pkg, "autopipe/internal/"), "/")
		if l, ok := layerOf[dir]; ok {
			return l
		}
		return bucketMisc
	case strings.HasPrefix(pkg, "autopipe/"):
		return bucketMisc
	}
	return ""
}

// attributeRaw reads `go tool pprof -raw` output of a CPU profile and
// returns the CPU time charged to each bucket.
func attributeRaw(r io.Reader) (map[string]time.Duration, error) {
	type sample struct {
		ns   int64
		locs []int
		gen  bool
	}
	var samples []sample
	frames := map[int][]string{} // location id → function names, innermost first
	section, lastLoc := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:" || trimmed == "Locations" || trimmed == "Mappings":
			section = trimmed
			continue
		case trimmed == "":
			continue
		}
		switch section {
		case "Samples:":
			head, rest, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue
			}
			if strings.HasPrefix(rest, "[") { // a label line under the last sample
				if head == "role" && strings.Contains(rest, "[gen]") && len(samples) > 0 {
					samples[len(samples)-1].gen = true
				}
				continue
			}
			f := strings.Fields(head)
			if len(f) != 2 {
				continue // the column header
			}
			ns, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof sample %q: %w", line, err)
			}
			s := sample{ns: ns}
			for _, id := range strings.Fields(rest) {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("pprof sample %q: %w", line, err)
				}
				s.locs = append(s.locs, n)
			}
			samples = append(samples, s)
		case "Locations":
			f := strings.Fields(trimmed)
			if strings.HasSuffix(f[0], ":") { // "N: 0xaddr M=1 func file:line s=N"
				id, err := strconv.Atoi(strings.TrimSuffix(f[0], ":"))
				if err != nil {
					return nil, fmt.Errorf("pprof location %q: %w", line, err)
				}
				lastLoc = id
				frames[id] = nil
				if len(f) > 3 {
					frames[id] = append(frames[id], f[3])
				}
				continue
			}
			frames[lastLoc] = append(frames[lastLoc], f[0]) // an inlined caller
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]time.Duration{}
	for _, s := range samples {
		b := bucketOther
		if s.gen {
			b = bucketGen
		} else {
		stack:
			for _, id := range s.locs {
				for _, fn := range frames[id] {
					if fb := bucketOfFunc(fn); fb != "" {
						b = fb
						break stack
					}
				}
			}
		}
		out[b] += time.Duration(s.ns)
	}
	return out, nil
}
