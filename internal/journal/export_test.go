package journal

// Encode frames one record.
func Encode(typ byte, data []byte) []byte {
	return appendFrame(nil, typ, func(b []byte) []byte { return append(b, data...) })
}
