// Command codesize regenerates Table 2 of the paper — "Code sizes for
// principal components at a host" — by counting this reproduction's Go
// source lines for each component and printing them beside the paper's
// C line counts.
//
//	go run ./cmd/codesize
package main

import (
	"fmt"
	"os"

	"xunet/internal/codesize"
)

func main() {
	rows, err := codesize.Measure()
	if err != nil {
		fmt.Fprintln(os.Stderr, "codesize:", err)
		os.Exit(1)
	}
	fmt.Println("Table 2: code sizes for principal components at a host")
	fmt.Println("(paper: lines of C with comments; repro: lines of Go with comments,")
	fmt.Println(" tests excluded; segment sizes are not reproduced — see EXPERIMENTS.md;")
	fmt.Println(" \"daemon (ours)\" is the whole sighost daemon — the state machine plus its")
	fmt.Println(" journal, reliable channel, MGMT, call pools and Env glue — not in the total)")
	fmt.Println()
	fmt.Print(codesize.Render(rows))
}
