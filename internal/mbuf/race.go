//go:build race

package mbuf

import (
	"fmt"
	"runtime"
	"strings"
)

// poison holds the stack that released a chain. A poisoned header never
// returns to the free list, so a stale pointer to it stays detectable.
type poison struct{ pcs []uintptr }

// check panics, naming the releasing stack, when the chain was released.
func (p *poison) check() {
	if p.pcs != nil {
		var b strings.Builder
		for fs := runtime.CallersFrames(p.pcs); ; {
			f, more := fs.Next()
			if fmt.Fprintf(&b, "\n%s\n\t%s:%d", f.Function, f.File, f.Line); !more {
				panic("mbuf: chain used after Release; released at:" + b.String())
			}
		}
	}
}

// release poisons the header and reports that it must not be recycled.
func (p *poison) release() bool {
	p.pcs = make([]uintptr, 32)
	p.pcs = p.pcs[:runtime.Callers(3, p.pcs)]
	return false
}

// Scribble fills b, a buffer about to be reused, with junk for any stale reader.
func Scribble(b []byte) {
	for i := range b {
		b[i] = 0xdb
	}
}
