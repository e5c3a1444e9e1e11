package shape

import (
	"testing"
	"testing/quick"

	"step/internal/symbolic"
)

func TestDimConstructors(t *testing.T) {
	d := Static(4)
	if sz, ok := d.IsStatic(); !ok || sz != 4 {
		t.Fatalf("Static(4) = %v", d)
	}
	dy := Dynamic(symbolic.Sym("D1"))
	if _, ok := dy.IsStatic(); ok {
		t.Fatal("dynamic dim reported static")
	}
	if r := NamedRagged("R"); r.Kind != Ragged || r.Size.String() != "R" {
		t.Fatalf("NamedRagged(R) = %v", r)
	}
}

func TestShapeString(t *testing.T) {
	s := New(Static(2), Dynamic(symbolic.Sym("D1")), NamedRagged("R"))
	if got := s.String(); got != "[2,D1,R~]" {
		t.Errorf("String = %q", got)
	}
}

func TestDimIndexing(t *testing.T) {
	s := OfInts(5, 3, 2) // [5,3,2]: D2=5, D1=3, D0=2
	if sz, _ := s.Dim(0).IsStatic(); sz != 2 {
		t.Errorf("D0 = %v", s.Dim(0))
	}
	if sz, _ := s.Dim(2).IsStatic(); sz != 5 {
		t.Errorf("D2 = %v", s.Dim(2))
	}
	if sz, _ := s.Outer().IsStatic(); sz != 5 {
		t.Errorf("Outer = %v", s.Outer())
	}
}

func TestFlattenStatic(t *testing.T) {
	s := OfInts(4, 3, 2)
	f, err := s.Flatten(0, 1, "D'") // merge inner two: [4,6]
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "[4,6]" {
		t.Errorf("flatten = %s", f)
	}
}

func TestFlattenRaggedAbsorbs(t *testing.T) {
	// Example (1) in §3.1: [2,2,D0] with D0 ragged; flattening inner two
	// gives [2, D'] with the ragged symbol the caller names, not [2, 2*D0].
	s := New(Static(2), Static(2), NamedRagged("D0"))
	f, err := s.Flatten(0, 1, "D'")
	if err != nil {
		t.Fatal(err)
	}
	if f.Rank() != 2 {
		t.Fatalf("rank = %d", f.Rank())
	}
	if f.Dim(0).Kind != Ragged {
		t.Fatalf("inner dim should be ragged, got %v", f.Dim(0))
	}
	if got := f.Dim(0).Size.String(); got != "D'" {
		t.Fatalf("ragged product must absorb into D', got %s", got)
	}
}

func TestFlattenErrors(t *testing.T) {
	s := OfInts(4, 3)
	if _, err := s.Flatten(1, 1, "D'"); err == nil {
		t.Error("expected error for empty range")
	}
	if _, err := s.Flatten(0, 5, "D'"); err == nil {
		t.Error("expected error for out-of-range")
	}
}

func TestReshapeInnermostDynamic(t *testing.T) {
	// [D2,1] reshaped at rank 0... the MoE example reshapes stream [D2]
	// into [ceil(D2/4), 4].
	s := New(Dynamic(symbolic.Sym("D2")))
	r, err := s.Reshape(0, 4, "D'")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rank() != 2 {
		t.Fatalf("rank = %d", r.Rank())
	}
	if r.Dims[0].Size.String() != "ceil(D2/4)" {
		t.Errorf("outer = %s", r.Dims[0].Size)
	}
	if sz, _ := r.Dim(0).IsStatic(); sz != 4 {
		t.Errorf("inner = %v", r.Dim(0))
	}
}

func TestReshapeNonInnermostNeedsStaticDivisible(t *testing.T) {
	s := New(Static(8), Static(3))
	if _, err := s.Reshape(1, 5, "D'"); err == nil {
		t.Error("expected divisibility error")
	}
	r, err := s.Reshape(1, 4, "D'")
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != "[2,4,3]" {
		t.Errorf("reshape = %s", r)
	}
	dyn := New(Dynamic(symbolic.Sym("D")), Static(3))
	if _, err := dyn.Reshape(1, 2, "D'"); err == nil {
		t.Error("expected error reshaping dynamic non-innermost dim")
	}
}

func TestReshapeRaggedAbsorbs(t *testing.T) {
	s := New(NamedRagged("R"))
	r, err := s.Reshape(0, 4, "R'")
	if err != nil {
		t.Fatal(err)
	}
	if r.Dims[0].Kind != Ragged || r.Dims[0].Size.String() != "R'" {
		t.Errorf("outer should be the ragged dim R': %v", r.Dims[0])
	}
}

func TestPromote(t *testing.T) {
	s := OfInts(3, 2)
	p := s.Promote()
	if p.String() != "[1,3,2]" {
		t.Errorf("promote = %s", p)
	}
	d := New(Dynamic(symbolic.Sym("D")))
	pd := d.Promote()
	if pd.Outer().Kind != DynamicRegular {
		t.Errorf("promote of dynamic outer should be dynamic: %v", pd.Outer())
	}
}

func TestExpand(t *testing.T) {
	// Figure 5: input [2,1,1] expand rank 2 against ref [2,Dragged,2].
	in := New(Static(2), Static(1), Static(1))
	ref := New(Static(2), NamedRagged("Dr"), Static(2))
	out, err := in.Expand(ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(out, ref) {
		t.Errorf("expand = %s, want %s", out, ref)
	}
	// Non-1 inner dim is an error.
	bad := New(Static(2), Static(2), Static(1))
	if _, err := bad.Expand(ref, 2); err == nil {
		t.Error("expected error for non-1 expanded dim")
	}
	// Rank mismatch is an error.
	if _, err := in.Expand(OfInts(2, 2), 1); err == nil {
		t.Error("expected rank mismatch error")
	}
}

func TestDropInner(t *testing.T) {
	s := OfInts(4, 3, 2)
	d, err := s.Drop(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "[4]" {
		t.Errorf("drop = %s", d)
	}
	in, err := s.Inner(2)
	if err != nil {
		t.Fatal(err)
	}
	if in.String() != "[3,2]" {
		t.Errorf("inner = %s", in)
	}
	if _, err := s.Drop(5); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestCompatible(t *testing.T) {
	// static feeds dynamic and ragged; ragged only feeds ragged.
	st := OfInts(4)
	dyn := New(Dynamic(symbolic.Sym("D")))
	rag := New(NamedRagged("R"))
	if !Compatible(st, dyn) || !Compatible(st, rag) || !Compatible(dyn, rag) {
		t.Error("restrictive dims must satisfy looser consumers")
	}
	if Compatible(rag, dyn) {
		t.Error("ragged must not feed dynamic-regular consumer")
	}
	if Compatible(dyn, st) {
		t.Error("dynamic must not feed static consumer")
	}
	if Compatible(OfInts(4), OfInts(5)) {
		t.Error("static sizes must match")
	}
	if Compatible(OfInts(4, 2), OfInts(4)) {
		t.Error("rank mismatch must fail")
	}
}

func TestEqualShapes(t *testing.T) {
	a := New(Static(2), Dynamic(symbolic.Sym("D")))
	b := New(Static(2), Dynamic(symbolic.Sym("D")))
	if !Equal(a, b) {
		t.Error("identical shapes must be Equal")
	}
	if Equal(a, OfInts(2, 3)) {
		t.Error("different kinds must not be Equal")
	}
}

func TestConcat(t *testing.T) {
	c := Concat(OfInts(2), OfInts(3, 4))
	if c.String() != "[2,3,4]" {
		t.Errorf("concat = %s", c)
	}
}

// Property: flatten of a fully static shape preserves total cardinality.
func TestQuickFlattenPreservesCardinality(t *testing.T) {
	f := func(a, b, c uint8) bool {
		da, db, dc := int(a%7)+1, int(b%7)+1, int(c%7)+1
		s := OfInts(da, db, dc)
		fl, err := s.Flatten(0, 1, "D'")
		if err != nil {
			return false
		}
		before, err1 := s.Cardinality().Eval(nil)
		after, err2 := fl.Cardinality().Eval(nil)
		return err1 == nil && err2 == nil && before == after
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reshape of innermost static dim yields ceil(D/S) outer chunks
// covering at least D elements and less than D+S.
func TestQuickReshapeCover(t *testing.T) {
	f := func(d, s uint8) bool {
		D, S := int(d%100)+1, int(s%9)+1
		sh := OfInts(D)
		r, err := sh.Reshape(0, S, "D'")
		if err != nil {
			return false
		}
		outer, err := r.Dims[0].Size.Eval(nil)
		if err != nil {
			return false
		}
		total := outer * int64(S)
		return total >= int64(D) && total < int64(D+S)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
