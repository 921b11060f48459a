package mobileip

import (
	"mob4x4/internal/ipv4"
)

// Trace-detail builders for the tunnel hot paths, byte-identical to the
// fmt.Sprintf strings they replaced but assembled with ipv4.Addr.AppendText
// into stack buffers. Call sites build them only when Tracer.On().

// tunnelDetail renders "tunnel SRC > DST (inner ISRC > IDST)".
func tunnelDetail(src, dst, innerSrc, innerDst ipv4.Addr) string {
	var buf [96]byte
	b := append(buf[:0], "tunnel "...)
	b = src.AppendText(b)
	b = append(b, " > "...)
	b = dst.AppendText(b)
	b = append(b, " (inner "...)
	b = innerSrc.AppendText(b)
	b = append(b, " > "...)
	b = innerDst.AppendText(b)
	b = append(b, ')')
	return string(b)
}

// chTunnelDetail renders "CH tunnel SRC > CAREOF (inner dst DST)".
func chTunnelDetail(src, careOf, innerDst ipv4.Addr) string {
	var buf [96]byte
	b := append(buf[:0], "CH tunnel "...)
	b = src.AppendText(b)
	b = append(b, " > "...)
	b = careOf.AppendText(b)
	b = append(b, " (inner dst "...)
	b = innerDst.AppendText(b)
	b = append(b, ')')
	return string(b)
}

// decapDetail renders prefix + "inner ISRC > IDST" (prefix is
// "detunnel: " or "reverse tunnel: ").
func decapDetail(prefix string, innerSrc, innerDst ipv4.Addr) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, "inner "...)
	b = innerSrc.AppendText(b)
	b = append(b, " > "...)
	b = innerDst.AppendText(b)
	return string(b)
}
