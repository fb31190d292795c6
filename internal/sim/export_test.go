package sim

import "time"

// Post is PostSized for a pure control post (no payload bytes).
func (e *Engine) Post(dst *Engine, d time.Duration, fn func()) {
	e.PostSized(dst, d, 0, fn)
}
