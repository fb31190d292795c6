// Package lib holds one export of each class the unused-exports check
// tells apart.
package lib

import "errors"

// Dead is referenced by no file at all: flagged.
func Dead() {}

// TestOnly is referenced only by this package's tests: flagged.
func TestOnly() int { return 1 }

// Used is called from main.go.
func Used() *Result { return &Result{n: Internal} }

// Result is named by no other file; it is reachable through Used's
// signature.
type Result struct{ n int }

// Shape is an interface main.go uses.
type Shape interface{ Area() int }

// Square satisfies Shape.
type Square struct{}

// Area is never selected by name; Square satisfies Shape with it.
func (Square) Area() int { return 4 }

// ErrSentinel is what Err matches.
var ErrSentinel = errors.New("sentinel")

// Err matches ErrSentinel through errors.Is.
type Err struct{}

func (Err) Error() string { return "err" }

// Is is called only by errors.Is.
func (Err) Is(target error) bool { return target == ErrSentinel }

type hidden struct{}

// Exported is a method of an unexported type: never a candidate.
func (hidden) Exported() int { return 2 }

// Hidden returns a value of the unexported type.
func Hidden() int { return hidden{}.Exported() }

// Internal is used by this package's non-test code only: counted, not
// flagged.
var Internal = 3
