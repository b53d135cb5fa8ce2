package netsim

import "strconv"

// Name is a flow's name held as parts — a format, up to three integer
// arguments and a collective phase — and rendered by String only where a
// name is read: the fault hook, StallMatching and flow records. Starting
// a flow therefore formats nothing. Names are comparable values; equal
// parts render equal strings.
//
// The rendered text is a contract: chaos kill-on-flow, stall, drop and
// partition triggers match substrings of it.
type Name struct {
	format string
	args   [maxNameArgs]int
	nargs  uint8
	phase  namePhase
	step   int // ring step, for phaseRingStep
}

const maxNameArgs = 3

// namePhase is the collective-step suffix a synchronisation appends to
// its base name.
type namePhase uint8

const (
	phaseNone namePhase = iota
	phasePush
	phasePull
	phaseRingStep
)

// Label returns a name that renders as s, verbatim.
func Label(s string) Name { return Name{format: s} }

// Namef returns a name that renders as format with each %d verb replaced
// by the next argument in decimal, exactly as fmt.Sprintf would for int
// arguments. It takes at most three arguments; a %d verb beyond the
// arguments, or any format given none, renders verbatim.
func Namef(format string, args ...int) Name {
	if len(args) > maxNameArgs {
		panic("netsim: Namef takes at most three arguments")
	}
	n := Name{format: format, nargs: uint8(len(args))}
	copy(n.args[:], args)
	return n
}

// push, pull and ringStep are the per-phase names of a synchronisation
// named n: n + "/push", n + "/pull" and n + "/ring-step<step>".
func (n Name) push() Name { n.phase = phasePush; return n }
func (n Name) pull() Name { n.phase = phasePull; return n }
func (n Name) ringStep(step int) Name {
	n.phase, n.step = phaseRingStep, step
	return n
}

// String renders the name.
func (n Name) String() string {
	if n.nargs == 0 && n.phase == phaseNone {
		return n.format
	}
	b := make([]byte, 0, len(n.format)+24)
	f, next := n.format, 0
	for i := 0; i < len(f); i++ {
		if f[i] == '%' && i+1 < len(f) && f[i+1] == 'd' && next < int(n.nargs) {
			b = strconv.AppendInt(b, int64(n.args[next]), 10)
			next++
			i++
			continue
		}
		b = append(b, f[i])
	}
	switch n.phase {
	case phasePush:
		b = append(b, "/push"...)
	case phasePull:
		b = append(b, "/pull"...)
	case phaseRingStep:
		b = append(b, "/ring-step"...)
		b = strconv.AppendInt(b, int64(n.step), 10)
	}
	return string(b)
}
