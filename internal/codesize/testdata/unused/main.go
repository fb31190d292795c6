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
	fmt.Println(r, s, errors.Is(lib.Err{}, lib.ErrSentinel), lib.Hidden())
}
