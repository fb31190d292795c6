package sigmsg

// EncodedSize is the exact number of bytes Encode/AppendTo produce for
// this message, so callers can size a buffer without a trial encode.
func (m *Msg) EncodedSize() int {
	return fixedLen + 2*6 + len(m.Service) + len(m.Dest) + len(m.Src) +
		len(m.QoS) + len(m.Comment) + len(m.Reason)
}

// Encode serializes the message into a fresh slice.
func (m Msg) Encode() []byte {
	return m.AppendTo(make([]byte, 0, m.EncodedSize()))
}
