package routeopt_test

import (
	"bytes"
	"testing"

	"mob4x4/internal/mobileip"
	"mob4x4/internal/routeopt"
)

// FuzzParseUpdate feeds arbitrary bytes to the binding-update parser.
// Port 435 is a hostile-input boundary — any host can forge datagrams at
// a receiver — so the parser must reject garbage without panicking, and
// anything accepted must be canonical: re-marshalling the parsed update
// (plus its extension, if any) reproduces the input byte-for-byte. That
// property is what makes "the MAC covers every byte that arrived"
// checkable.
func FuzzParseUpdate(f *testing.F) {
	auth := mobileip.NewAuthenticator(0x524f, []byte("fuzz-seed-key"))
	u := sampleUpdate()
	plain := u.Marshal()
	signed := auth.AppendAuth(append([]byte{}, plain...))
	f.Add(plain)
	f.Add(signed)
	f.Add(signed[:len(signed)-1])                     // truncated MAC
	f.Add(append([]byte{}, signed...)[:len(plain)+1]) // bare extension type byte
	f.Add(append(append([]byte{}, plain...), 0, 0))   // trailing garbage
	f.Add([]byte{routeopt.TypeBindingUpdate})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		u, ext, hasAuth, ok := routeopt.ParseUpdate(data)
		if !ok {
			return
		}
		b := u.AppendMarshal(nil)
		if hasAuth {
			b = ext.AppendMarshal(b)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted update not canonical: %x -> %x", data, b)
		}
	})
}

// FuzzParseAck is FuzzParseUpdate's counterpart for the acknowledgement
// parser, which sits on the updater's own hostile boundary (any host can
// send to its ephemeral port).
func FuzzParseAck(f *testing.F) {
	auth := mobileip.NewAuthenticator(0x524f, []byte("fuzz-seed-key"))
	a := sampleAck()
	plain := a.Marshal()
	signed := auth.AppendAuth(append([]byte{}, plain...))
	f.Add(plain)
	f.Add(signed)
	f.Add(signed[:len(signed)-1])
	f.Add(append(append([]byte{}, plain...), 0))
	f.Add([]byte{routeopt.TypeBindingAck})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, ext, hasAuth, ok := routeopt.ParseAck(data)
		if !ok {
			return
		}
		b := a.AppendMarshal(nil)
		if hasAuth {
			b = ext.AppendMarshal(b)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted ack not canonical: %x -> %x", data, b)
		}
	})
}
