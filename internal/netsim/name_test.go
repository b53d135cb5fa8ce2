package netsim

import (
	"fmt"
	"strconv"
	"testing"
)

// TestNameFormsMatchSprintf: every flow-name form renders byte for byte
// as the fmt.Sprintf and string concatenation that built it before names
// were kept as parts — chaos triggers match on this text.
func TestNameFormsMatchSprintf(t *testing.T) {
	ints := []int{0, 1, 7, 10, 42, 1234567}
	var cases []struct {
		got  Name
		want string
	}
	add := func(got Name, want string) {
		cases = append(cases, struct {
			got  Name
			want string
		}{got, want})
	}
	for _, a := range ints {
		for _, b := range ints {
			for _, c := range []int{0, 3, 11} {
				add(Namef("act(b%d)%d→%d", a, b, c), fmt.Sprintf("act(b%d)%d→%d", a, b, c))
				add(Namef("grad(b%d)%d→%d", a, b, c), fmt.Sprintf("grad(b%d)%d→%d", a, b, c))
				add(Namef("migrate/L%d:%d→%d", a, b, c), "migrate/"+fmt.Sprintf("L%d:%d→%d", a, b, c))
				add(Namef("finemigrate/L%d:%d→%d", a, b, c), "finemigrate/"+fmt.Sprintf("L%d:%d→%d", a, b, c))
			}
			add(Namef("sact(p%d,m%d)", a, b), fmt.Sprintf("sact(p%d,m%d)", a, b))
			add(Namef("sgrad(p%d,m%d)", a, b), fmt.Sprintf("sgrad(p%d,m%d)", a, b))
		}
		for _, base := range []string{"gradsync(stage%d)", "flushsync(stage%d)"} {
			sync := fmt.Sprintf(base, a)
			n := Namef(base, a)
			add(n, sync)
			add(n.push(), sync+"/push")
			add(n.pull(), sync+"/pull")
			for _, step := range ints {
				add(n.ringStep(step), sync+"/ring-step"+strconv.Itoa(step))
			}
		}
		add(Namef("xt%d/burst", a), fmt.Sprintf("xt%d/burst", a))
	}
	add(Label("probe"), "probe")
	add(Label("ps").push(), "ps/push")
	add(Label("ring").ringStep(3), "ring/ring-step3")
	add(Label("100%d"), "100%d") // a label is verbatim
	add(Namef("x%d-%d", 5), "x5-%d")
	for _, c := range cases {
		if s := c.got.String(); s != c.want {
			t.Errorf("name %+v renders %q, want %q", c.got, s, c.want)
		}
	}
}
