// Command main is the fixture module's only production user of lib.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	r := lib.Used()
	var s lib.Shape = lib.Square{}
	var st lib.Stack[int]
	st.Push(1)
	lib.A{}.Run()
	fmt.Println(r, r.Tally(), s.Area(), st, lib.B{}, errors.Is(lib.Err{}, lib.ErrSentinel), lib.Hidden())
}
