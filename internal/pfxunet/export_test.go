package pfxunet

// ActiveVCIs counts VCIs with live sockets.
func (f *Family) ActiveVCIs() int {
	n := 0
	for _, s := range f.pcbs {
		if s != nil {
			n++
		}
	}
	return n
}
