package stack

import (
	"slices"

	"mob4x4/internal/netsim"
)

// smallMap is a host's demux table (protocol handlers, bound UDP sockets,
// claimed addresses): a slice matched by a linear scan, since a fleet
// visitor holds two handlers, two or three sockets and one claim. Past
// netsim.SegIndexMin entries — a home agent claims every bound home
// address — it moves to a Go map, the threshold the segment MAC index
// uses. A Host holds each table by a pointer that stays nil until the
// first write; get and del accept the nil table.
type smallMap[K comparable, V any] struct {
	list []smallEntry[K, V]
	big  map[K]V // replaces list past SegIndexMin entries
}

type smallEntry[K comparable, V any] struct {
	k K
	v V
}

// tableFor returns *p, building an empty table on first use.
func tableFor[K comparable, V any](p **smallMap[K, V]) *smallMap[K, V] {
	if *p == nil {
		*p = new(smallMap[K, V])
	}
	return *p
}

func (m *smallMap[K, V]) find(k K) int {
	for i := range m.list {
		if m.list[i].k == k {
			return i
		}
	}
	return -1
}

func (m *smallMap[K, V]) get(k K) (v V, ok bool) {
	if m == nil {
		return v, false
	}
	if m.big != nil {
		v, ok = m.big[k]
		return v, ok
	}
	if i := m.find(k); i >= 0 {
		return m.list[i].v, true
	}
	return v, false
}

func (m *smallMap[K, V]) set(k K, v V) {
	if m.big != nil {
		m.big[k] = v
		return
	}
	if i := m.find(k); i >= 0 {
		m.list[i].v = v
		return
	}
	m.list = append(m.list, smallEntry[K, V]{k, v})
	if len(m.list) > netsim.SegIndexMin {
		m.big = make(map[K]V, 2*len(m.list))
		for _, e := range m.list {
			m.big[e.k] = e.v
		}
		m.list = nil
	}
}

func (m *smallMap[K, V]) del(k K) {
	if m == nil {
		return
	}
	if m.big != nil {
		delete(m.big, k)
	} else if i := m.find(k); i >= 0 {
		m.list = slices.Delete(m.list, i, i+1)
	}
}
