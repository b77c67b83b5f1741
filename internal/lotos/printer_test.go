package lotos

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFormatBasics(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"a1; exit", "a1; exit"},
		{"a1; b2; exit", "a1; b2; exit"},
		{"a1; exit [] b2; exit", "a1; exit [] b2; exit"},
		{"(a1; exit [] b2; exit) >> c3; exit", "a1; exit [] b2; exit >> c3; exit"},
		{"a1; (b2; exit >> c3; exit)", "a1; (b2; exit >> c3; exit)"},
		{"(a1; exit >> b2; exit) [> c3; exit", "(a1; exit >> b2; exit) [> c3; exit"},
		{"a1; exit ||| b2; exit", "a1; exit ||| b2; exit"},
		{"a1; exit || b2; exit", "a1; exit || b2; exit"},
		{"a1; exit |[a1]| a1; exit", "a1; exit |[a1]| a1; exit"},
		{"a1; exit [> b2; exit", "a1; exit [> b2; exit"},
		{"a1; (b2; exit [] c3; exit)", "a1; (b2; exit [] c3; exit)"},
		{"s2(7); exit", "s2(7); exit"},
		{"s2(x); r1(y); exit", "s2(x); r1(y); exit"},
		{"stop", "stop"},
		{"i; a1; exit", "i; a1; exit"},
	}
	for _, c := range cases {
		e := MustParseExpr(c.src)
		if got := Format(e); got != c.want {
			t.Errorf("Format(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestFormatEmptyRendersExit(t *testing.T) {
	if got := Format(Emp()); got != "exit" {
		t.Errorf("Format(Empty) = %q", got)
	}
	if got := Format(Enb(Act(ServiceEvent("a", 1)), Emp())); got != "a1; exit >> exit" {
		t.Errorf("got %q", got)
	}
}

func TestFormatConcreteOccurrence(t *testing.T) {
	ev := SendEvent(2, 7).WithOcc("0/5")
	got := Format(Act(ev))
	if got != "s2(#0/5,7); exit" {
		t.Fatalf("got %q", got)
	}
	back := MustParseExpr(got).(*Prefix)
	if back.Ev != ev {
		t.Fatalf("round trip: %+v != %+v", back.Ev, ev)
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SPEC a1; exit ENDSPEC`,
		`SPEC A WHERE PROC A = a1; A [] b1; exit END ENDSPEC`,
		`SPEC S [> interrupt3; exit WHERE
			PROC S = (read1; push2; S >> pop2; write3; exit) [] (eof1; make3; exit) END
		 ENDSPEC`,
		`SPEC B ||| B WHERE PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit END ENDSPEC`,
		`SPEC A WHERE
			PROC A = B WHERE PROC B = a1; exit END END
		 ENDSPEC`,
	}
	for _, src := range srcs {
		sp := MustParse(src)
		text := sp.String()
		back, err := Parse(text)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v\nrendered: %s", src, err, text)
			continue
		}
		if !EqualSpec(sp, back) {
			t.Errorf("round trip changed structure:\noriginal: %s\nrendered: %s", src, text)
		}
	}
}

// genExpr generates a random well-formed expression with service events,
// message events and all operators, for property-based round-trip testing.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return X()
		case 1:
			return Halt()
		case 2:
			return Act(ServiceEvent(string(rune('a'+r.Intn(4))), 1+r.Intn(4)))
		default:
			return Act(SendEvent(1+r.Intn(4), r.Intn(30)))
		}
	}
	switch r.Intn(9) {
	case 0:
		return Pfx(ServiceEvent(string(rune('a'+r.Intn(4))), 1+r.Intn(4)), genExpr(r, depth-1))
	case 1:
		return Pfx(RecvEvent(1+r.Intn(4), r.Intn(30)), genExpr(r, depth-1))
	case 2:
		return Ch(genExpr(r, depth-1), genExpr(r, depth-1))
	case 3:
		return Ill(genExpr(r, depth-1), genExpr(r, depth-1))
	case 4:
		return Full(genExpr(r, depth-1), genExpr(r, depth-1))
	case 5:
		return Gates(genExpr(r, depth-1), []string{"a1", "b2"}, genExpr(r, depth-1))
	case 6:
		return Enb(genExpr(r, depth-1), genExpr(r, depth-1))
	case 7:
		return Dis(genExpr(r, depth-1), genExpr(r, depth-1))
	default:
		return Pfx(InternalEvent(), genExpr(r, depth-1))
	}
}

func TestPropertyPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 1+r.Intn(5))
		text := Format(e)
		back, err := ParseExpr(text)
		if err != nil {
			t.Logf("seed %d: parse error %v on %q", seed, err, text)
			return false
		}
		if !Equal(e, back) {
			t.Logf("seed %d: structure changed\n  orig: %s\n  back: %s", seed, Format(e), Format(back))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, 1+r.Intn(5))
		c := Clone(e)
		return Equal(e, c) && Canon(e) == Canon(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCanonDistinguishesEmptyFromExit(t *testing.T) {
	if Canon(Emp()) == Canon(X()) {
		t.Error("Canon must distinguish Empty from Exit")
	}
}

func TestCanonIncludesOccurrence(t *testing.T) {
	a := Call("A")
	a.Occ = "0"
	b := Call("A")
	b.Occ = "0/5"
	if Canon(a) == Canon(b) {
		t.Error("Canon must include occurrence stamps")
	}
}

func TestEqualOperatorsDistinct(t *testing.T) {
	a := MustParseExpr("a1; exit ||| b2; exit")
	b := MustParseExpr("a1; exit || b2; exit")
	c := MustParseExpr("a1; exit [] b2; exit")
	if Equal(a, b) || Equal(a, c) || Equal(b, c) {
		t.Error("distinct operators must not be Equal")
	}
}

func TestChildrenAndWalk(t *testing.T) {
	e := MustParseExpr("(a1; exit [] b2; exit) >> (c3; exit ||| d4; exit)")
	if n := len(Children(e)); n != 2 {
		t.Fatalf("children of >>: %d", n)
	}
	count := 0
	Walk(e, func(Expr) { count++ })
	// Enable, Choice, 2×(Prefix,Exit), Parallel, 2×(Prefix,Exit) = 1+1+4+1+4
	if count != 11 {
		t.Fatalf("walk count = %d, want 11", count)
	}
}

func TestBuilderHelpers(t *testing.T) {
	seq := SeqChain(ServiceEvent("a", 1), ServiceEvent("b", 2))
	if Format(seq) != "a1; b2; exit" {
		t.Errorf("SeqChain: %s", Format(seq))
	}
	ch := ChoiceOf(Act(ServiceEvent("a", 1)), Act(ServiceEvent("b", 1)), Act(ServiceEvent("c", 1)))
	if Format(ch) != "a1; exit [] b1; exit [] c1; exit" {
		t.Errorf("ChoiceOf: %s", Format(ch))
	}
	par := InterleaveOf(Act(ServiceEvent("a", 1)), Act(ServiceEvent("b", 2)))
	if Format(par) != "a1; exit ||| b2; exit" {
		t.Errorf("InterleaveOf: %s", Format(par))
	}
	if !IsEmpty(InterleaveOf()) || !IsEmpty(ChoiceOf()) {
		t.Error("empty folds must yield Empty")
	}
}

func TestEventStringAndGate(t *testing.T) {
	cases := []struct {
		ev        Event
		str, gate string
	}{
		{ServiceEvent("read", 1), "read1", "read@1"},
		{SendEvent(2, 7), "s2(7)", "s@2:7#s"},
		{RecvEvent(3, 7), "r3(7)", "r@3:7#s"},
		{InternalEvent(), "i", ""},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if got := c.ev.Gate(); got != c.gate {
			t.Errorf("Gate() = %q, want %q", got, c.gate)
		}
	}
}

func TestSameMessage(t *testing.T) {
	s := SendEvent(2, 7)
	r := RecvEvent(1, 7)
	if !s.SameMessage(r) {
		t.Error("same node+occ must match")
	}
	if s.SameMessage(RecvEvent(1, 8)) {
		t.Error("different node must not match")
	}
	tag1 := Event{Kind: EvSend, Place: 2, Node: -1, Tag: "x"}
	tag2 := Event{Kind: EvRecv, Place: 1, Node: -1, Tag: "x"}
	if !tag1.SameMessage(tag2) {
		t.Error("same tags must match")
	}
	if tag1.SameMessage(r) {
		t.Error("tagged vs numbered must not match")
	}
	if s.SameMessage(ServiceEvent("a", 1)) {
		t.Error("service events are not messages")
	}
	occ1 := SendEvent(2, 7).WithOcc("0/1")
	occ2 := RecvEvent(3, 7).WithOcc("0/2")
	if occ1.SameMessage(occ2) {
		t.Error("different occurrences must not match")
	}
}

func TestWithOcc(t *testing.T) {
	if got := ServiceEvent("a", 1).WithOcc("0/1"); got.Occ != "" {
		t.Error("WithOcc must not touch service events")
	}
	tagged := Event{Kind: EvSend, Place: 2, Node: -1, Tag: "x"}
	if got := tagged.WithOcc("0/1"); got.Occ != "" {
		t.Error("WithOcc must not touch tagged messages")
	}
	if got := SendEvent(2, 7).WithOcc("0/9"); got.Occ != "0/9" {
		t.Error("WithOcc must stamp numbered messages")
	}
}

func TestParseEventIDErrors(t *testing.T) {
	for _, id := range []string{"abc", "123", ""} {
		if _, err := ParseEventID(id); err == nil {
			t.Errorf("ParseEventID(%q): expected error", id)
		}
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EvService, EvSend, EvRecv, EvInternal} {
		if k.String() == "" {
			t.Errorf("empty kind string for %d", k)
		}
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}
