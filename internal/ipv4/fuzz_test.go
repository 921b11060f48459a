package ipv4

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzHeaderParse feeds arbitrary bytes to Unmarshal. The parser sits on
// the repo's hostile-input boundary: every simulated wire byte — tunnel
// payloads included — goes through it, so it must reject garbage with an
// error, never panic, and anything it accepts must survive a
// marshal/unmarshal round trip unchanged.
func FuzzHeaderParse(f *testing.F) {
	valid := Packet{
		Header: Header{
			TOS:      0x10,
			ID:       0x1234,
			TTL:      DefaultTTL,
			Protocol: ProtoUDP,
			Src:      AddrFrom(36, 22, 0, 5),
			Dst:      AddrFrom(128, 9, 1, 4),
		},
		Payload: []byte("seed payload"),
	}
	b, err := valid.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:HeaderLen])
	f.Add(b[:10])
	f.Add([]byte{})
	f.Add([]byte{0x45})
	withOpts := valid
	withOpts.Options = []byte{1, 1, 1, 1} // NOP padding
	ob, err := withOpts.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ob)
	frag := valid
	frag.MoreFrags = true
	frag.FragOffset = 185
	fb, err := frag.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fb)
	// A UDP/434 registration request carrying an authentication
	// extension (type 32, length 20, SPI, 16-byte MAC) — the datagram
	// shape the adversarial fleet forges, replays, and tampers with.
	reg := valid
	reg.Payload = append(
		[]byte{0x13, 0x88, 0x01, 0xb2, 0x00, 0x3a, 0x00, 0x00}, // UDP header, dst port 434
		1, 0, 0x01, 0x2c, // request, lifetime 300
		36, 1, 1, 3, 36, 1, 1, 2, 128, 9, 1, 4, // home, home agent, care-of
		0, 0, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, // identification
		32, 20, 0x4d, 0x4e, 0x00, 0x01, // auth ext header + SPI
		0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5,
		0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, // MAC
	)
	rb, err := reg.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rb)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet failed to re-marshal: %v (%s)", err, &p)
		}
		// AppendMarshal must produce the same bytes even into dirty
		// memory (it may not rely on make()'s zeroing).
		dirty := bytes.Repeat([]byte{0xff}, len(out))
		appended, err := p.AppendMarshal(dirty[:0])
		if err != nil {
			t.Fatalf("AppendMarshal failed where Marshal succeeded: %v (%s)", err, &p)
		}
		if !bytes.Equal(appended, out) {
			t.Fatalf("AppendMarshal diverges from Marshal:\n append %x\nmarshal %x", appended, out)
		}
		q, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled packet failed to parse: %v (%s)", err, &p)
		}
		if q.Header.TOS != p.Header.TOS || q.ID != p.ID ||
			q.DontFrag != p.DontFrag || q.MoreFrags != p.MoreFrags ||
			q.FragOffset != p.FragOffset || q.TTL != p.TTL ||
			q.Protocol != p.Protocol || q.Src != p.Src || q.Dst != p.Dst {
			t.Fatalf("header changed across round trip:\n first %s\nsecond %s", &p, &q)
		}
		if !bytes.Equal(q.Options, p.Options) {
			t.Fatalf("options changed across round trip: %x -> %x", p.Options, q.Options)
		}
		if !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("payload changed across round trip: %d bytes -> %d bytes", len(p.Payload), len(q.Payload))
		}
	})
}

// refReassembler is FuzzReassemble's model of RFC 791 reassembly: one map
// from byte offset to byte per key, first arrival winning, with none of
// the real reassembler's span merging or buffer reuse.
type refReassembler struct {
	ctxs  map[fragKey]*refContext
	drops uint64
}

type refContext struct {
	bytes    map[int]byte
	total    int // -1 until the final fragment is seen
	header   Header
	opts     []byte
	sawFirst bool
}

func (r *refReassembler) add(p Packet) (out Packet, done bool, err error) {
	if !p.MoreFrags && p.FragOffset == 0 {
		return p, true, nil
	}
	key := fragKey{p.Src, p.Dst, p.Protocol, p.ID}
	c := r.ctxs[key]
	if c == nil {
		c = &refContext{bytes: map[int]byte{}, total: -1}
		r.ctxs[key] = c
	}
	off := int(p.FragOffset) * 8
	end := off + len(p.Payload)
	if !p.MoreFrags {
		if c.total >= 0 && c.total != end {
			delete(r.ctxs, key)
			r.drops++
			return Packet{}, false, errors.New("conflicting lengths")
		}
		c.total = end
	}
	if off == 0 && !c.sawFirst {
		c.header, c.opts, c.sawFirst = p.Header, append([]byte(nil), p.Options...), true
	}
	for i, b := range p.Payload {
		if _, ok := c.bytes[off+i]; !ok {
			c.bytes[off+i] = b
		}
	}
	if c.total < 0 || !c.sawFirst || len(c.bytes) != c.total {
		return Packet{}, false, nil
	}
	payload := make([]byte, c.total)
	for i := range payload {
		b, ok := c.bytes[i]
		if !ok {
			return Packet{}, false, nil // a byte past the end stands in for a hole
		}
		payload[i] = b
	}
	delete(r.ctxs, key)
	out = Packet{Header: c.header, Payload: payload}
	out.Options = c.opts
	out.MoreFrags, out.FragOffset = false, 0
	return out, true, nil
}

func (r *refReassembler) expire() {
	r.drops += uint64(len(r.ctxs))
	clear(r.ctxs)
}

// FuzzReassemble drives one long-lived Reassembler, so recycled contexts
// and assembly buffers carry over from packet to packet, and checks every
// step against refReassembler. The input is a program: each byte picks an
// operation and the bytes after it its arguments. Packets of random size
// (some with options) are fragmented at random MTUs under a few IDs, so
// contexts interleave and keys collide; fragments are delivered in any
// order, duplicated, cut into overlapping sub-fragments, re-fragmented,
// and interrupted by Expire. Each fragment is delivered from a scratch
// buffer that is scribbled over once Add returns, as the link layer
// recycles a frame. Every payload is fresh bytes, so a stale byte from an
// earlier packet shows as a difference.
func FuzzReassemble(f *testing.F) {
	f.Add([]byte{0, 0x05, 0xdc, 0x40, 0, 2, 2, 2, 2})             // one packet, in order
	f.Add([]byte{0, 0x0f, 0xa0, 0x10, 1, 4, 3, 4, 2, 7, 2, 2, 2}) // duplicates, then expire
	f.Add([]byte{8, 0x08, 0x00, 0x02, 2, 0, 0x1e, 0x30, 5, 0, 1, 9, 5, 1, 0, 40, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 0x0c, 0x00, 0x30, 0, 6, 1, 0x40, 0, 0x0c, 0x00, 0x30, 1, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(checkReassembly)
}

// checkReassembly runs one FuzzReassemble program.
func checkReassembly(t *testing.T, prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	r := NewReassembler()
	ref := &refReassembler{ctxs: map[fragKey]*refContext{}}
	var pool []Packet  // fragments not yet delivered, or kept for duplicates
	var scratch []byte // the "frame" a fragment is delivered from
	// LCG state: no byte pattern repeats between packets.
	fill := uint32(0x5a5a5a5a)
	// Long programs add time, not coverage.
	for step := 0; len(prog) > 0 && step < 256; step++ {
		op := next()
		switch op % 8 {
		case 0, 1: // a new packet, fragmented into the pool
			size := (next()<<8|next())%4000 + 1
			mtu := HeaderLen + 8 + 8*(next()%190) // 28..1540
			p := Packet{Header: Header{
				TTL: 64, Protocol: ProtoUDP, ID: uint16(op >> 5), // 8 IDs
				Src: AddrFrom(10, 0, 0, 1), Dst: AddrFrom(10, 0, 0, 2),
			}, Payload: make([]byte, size)}
			for i := range p.Payload {
				fill = fill*1664525 + 1013904223
				p.Payload[i] = byte(fill >> 24)
			}
			if op&0x10 != 0 {
				p.Options = []byte{0x94, 0x04, byte(fill >> 16), byte(step)} // router alert
			}
			frags, err := AppendFragments(pool, p, mtu)
			if err != nil {
				continue // options leave no room at this MTU
			}
			pool = frags
		case 2, 3, 4, 5, 6:
			if len(pool) == 0 {
				continue
			}
			i := next() % len(pool)
			p := pool[i]
			switch op % 8 {
			case 2, 3: // deliver and forget
				pool = append(pool[:i], pool[i+1:]...)
			case 5: // an overlapping piece of it: [a, b) on 8-byte a
				a := min(8*(next()%(len(p.Payload)/8+1)), len(p.Payload))
				b := min(a+8*next()+next()%8, len(p.Payload))
				sub := p
				if a > 0 {
					sub.Options = nil
				}
				sub.FragOffset += uint16(a / 8)
				sub.Payload = p.Payload[a:b]
				sub.MoreFrags = p.MoreFrags || b < len(p.Payload)
				p = sub
			case 6: // re-fragment it at a smaller MTU, back into the pool
				pool = append(pool[:i], pool[i+1:]...)
				var err error
				if pool, err = AppendFragments(pool, p, HeaderLen+8+8*(next()%64)); err != nil {
					pool = append(pool, p)
				}
				continue
			}
			// case 4 (deliver, keep for a duplicate) falls through.
			scratch = append(scratch[:0], p.Options...)
			scratch = append(scratch, p.Payload...)
			framed := p
			framed.Options = scratch[:len(p.Options):len(p.Options)]
			if len(p.Options) == 0 {
				framed.Options = nil
			}
			framed.Payload = scratch[len(p.Options):]
			got, done, err := r.Add(framed)
			if p.MoreFrags || p.FragOffset != 0 {
				// The link layer recycles the frame; a whole packet
				// is returned as it came, so its frame stays.
				for k := range scratch {
					scratch[k] = ^scratch[k]
				}
			}
			want, wantDone, wantErr := ref.add(p)
			if (err != nil) != (wantErr != nil) || done != wantDone {
				t.Fatalf("step %d: Add = done %v, err %v; reference done %v, err %v", step, done, err, wantDone, wantErr)
			}
			if !done {
				break
			}
			if !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("step %d: reassembled %d bytes differ from the reference's %d", step, len(got.Payload), len(want.Payload))
			}
			if !bytes.Equal(got.Options, want.Options) {
				t.Fatalf("step %d: options %x, reference %x", step, got.Options, want.Options)
			}
			gh, wh := got.Header, want.Header
			gh.Options, wh.Options = nil, nil
			if !reflect.DeepEqual(gh, wh) {
				t.Fatalf("step %d: header %+v, reference %+v", step, gh, wh)
			}
			if op&0x80 == 0 {
				r.Release()
			}
		case 7:
			r.Expire()
			ref.expire()
		}
		if r.Pending() != len(ref.ctxs) || r.Drops != ref.drops {
			t.Fatalf("step %d: pending %d, drops %d; reference %d, %d", step, r.Pending(), r.Drops, len(ref.ctxs), ref.drops)
		}
		if len(pool) > 512 {
			pool = pool[len(pool)-512:]
		}
	}
}
