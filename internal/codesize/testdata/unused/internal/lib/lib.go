// Package lib holds one declaration of each class the reachability
// check tells apart.
package lib

import "errors"

// Dead is referenced by no file at all: flagged.
func Dead() {}

// dead is unexported and unreferenced: flagged.
func dead() {}

// TestOnly is referenced only by this package's tests: flagged.
func TestOnly() int { return 1 }

// Used is called from main.go.
func Used() *Result { return &Result{n: Internal + Shared + int(busy-idle)} }

// Result is named by no other file; it is reachable through Used's
// signature. Used's literal writes n by key; Tally reads it, and inc, add
// and addr by a bump, an add-assign and an address. unused is flagged, and
// so is written, which is only assigned.
type Result struct{ n, unused, written, inc, add, addr int }

func (r *Result) Tally() *int { r.written = r.n; r.inc++; r.add += 2; return &r.addr }

// Shape is an interface main.go uses.
type Shape interface{ Area() int }

// Square satisfies Shape. Its field has a tag, so it is exempt.
type Square struct {
	tagged int `k:"v"`
}

// Area is never selected by name; main calls it through Shape.
func (Square) Area() int { return 4 }

// A and B share a method name; only A's Run is called: B.Run is flagged.
// A's Run names its embedded hidden, on the path of a.a.
type A struct{ hidden }
type B struct{}

func (a A) Run() { _ = a.a }
func (B) Run()   {}

// Stack is generic; main pushes but never pops: Pop is flagged.
type Stack[T any] struct{ s []T }

func (s *Stack[T]) Push(v T) { s.s = append(s.s, v) }
func (s *Stack[T]) Pop() T   { v := s.s[len(s.s)-1]; s.s = s.s[:len(s.s)-1]; return v }

// Experiment is called only by the root package's TestExperiment.
func Experiment() {}

// skipped is used nowhere, but deleting it would renumber busy.
const (
	idle = iota
	skipped
	busy
)

// onlyElsewhere is named in other.go too, which no host build includes.
func onlyElsewhere() {}

// ErrSentinel is what Err matches.
var ErrSentinel = errors.New("sentinel")

// Err matches ErrSentinel through errors.Is.
type Err struct{}

func (Err) Error() string { return "err" }

// Is is called only by errors.Is.
func (Err) Is(target error) bool { return target == ErrSentinel }

type hidden struct{ a, b int }

// Exported is a method of an unexported type, called by Hidden.
func (hidden) Exported() int { return 2 }

// Hidden returns a value of the unexported type, built positionally.
func Hidden() int { return hidden{1, 2}.Exported() }

// Internal is used by this package's non-test code only: listed, not
// flagged.
var Internal = 3

// Shared is used by this package's non-test code and by another
// package's tests: not listed.
var Shared = 5
