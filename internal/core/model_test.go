package core

import (
	"slices"
	"sort"
	"strings"
)

// refModel is the reference model of one Core: the paper's decisions
// restated over a plain resource allocation graph, with none of the
// engine's machinery — no position queues, intern shards, shared
// sections or watched-slot index. Threads, locks and positions are small
// integers. It models the one configuration production runs: a request
// that completes a cycle records the deadlock's signature (or counts a
// repeat) and is approved, and any other request runs avoidance, "would
// approving it complete an instantiation of a signature naming its
// position" (§2.2).
//
// A lock's hold is the runtime's ownership word (word), taken by a CAS
// and released by a store, as the engine reads it: a thread whose CAS won
// but whose Acquired has not run holds the word while its approved
// request still names the lock, and reads as running (cycle and
// occupants skip that hold; its request is its only occupancy).
//
// Yields are not modelled as suspensions. The schedules that drive it arm
// a one-pair starvation signature at every position a deadlock signature
// names, which suppresses every yield there, so avoidance's verdict is
// observable as a counted, suppressed instantiation and a single-goroutine
// schedule never parks.
type refModel struct {
	word    map[int]int // lock → the thread holding its word
	acqPos  map[int]int // lock → the position its holder acquired it at
	reqLock map[int]int // thread → the lock it is approved to wait for
	reqPos  map[int]int // thread → the position of that request
	// sigs are the deadlock signatures in install order, each the sorted
	// multiset of its outer positions.
	sigs [][]int
}

// modelVerdict is what the model decides for one request.
type modelVerdict struct {
	detected  bool   // it completed a cycle with a new signature
	duplicate bool   // it completed a cycle whose signature was known
	found     bool   // avoidance found an instantiation
	checks    uint64 // deadlock signatures avoidance examined
	// cycle is the multiset of positions of the completed cycle's locks.
	cycle []int
}

func newRefModel() *refModel {
	return &refModel{
		word: map[int]int{}, acqPos: map[int]int{},
		reqLock: map[int]int{}, reqPos: map[int]int{},
	}
}

// request decides thread th's request for lock l at position p and
// approves it: detection first, then, unless a cycle was completed,
// avoidance over the signatures naming p in install order, up to the
// first instantiable one.
func (m *refModel) request(th, l, p int) modelVerdict {
	var v modelVerdict
	if v.cycle = m.cycle(th, l); v.cycle != nil {
		v.detected = m.addSig(v.cycle)
		v.duplicate = !v.detected
	} else {
		for _, s := range m.sigs {
			if !slices.Contains(s, p) {
				continue
			}
			v.checks++
			if m.instantiable(s, th, p) {
				v.found = true
				break
			}
		}
	}
	m.reqLock[th], m.reqPos[th] = l, p
	return v
}

// cas is the runtime's acquiring CAS of th's approved request: th holds
// the word, before Acquired.
func (m *refModel) cas(th int) { m.word[m.reqLock[th]] = th }

// acquired turns th's approved request, whose CAS won, into a hold.
func (m *refModel) acquired(th int) {
	l := m.reqLock[th]
	m.word[l], m.acqPos[l] = th, m.reqPos[th]
	m.abort(th)
}

// release drops the hold on l: the word's release store.
func (m *refModel) release(l int) {
	delete(m.word, l)
	delete(m.acqPos, l)
}

// holder is the thread holding l past its Acquired, if any.
func (m *refModel) holder(l int) (int, bool) {
	o, held := m.word[l]
	if !held {
		return 0, false
	}
	if r, waiting := m.reqLock[o]; waiting && r == l {
		return 0, false // its CAS won, its Acquired has not run
	}
	return o, true
}

// abort drops th's approved request.
func (m *refModel) abort(th int) {
	delete(m.reqLock, th)
	delete(m.reqPos, th)
}

// addSig installs a deadlock signature over the given positions unless
// one over the same multiset exists; it reports whether it was new.
func (m *refModel) addSig(positions []int) bool {
	s := slices.Clone(positions)
	sort.Ints(s)
	for _, x := range m.sigs {
		if slices.Equal(x, s) {
			return false
		}
	}
	m.sigs = append(m.sigs, s)
	return true
}

// cycle walks lock → owner → the lock that owner waits for → … from l
// and returns the positions the cycle's locks were acquired at if the
// walk comes back to th, or nil. A walk into a cycle without th stops:
// that deadlock was recorded when it formed.
func (m *refModel) cycle(th, l int) []int {
	var positions []int
	seen := map[int]bool{}
	for cur := l; ; {
		o, held := m.holder(cur)
		if !held {
			return nil
		}
		positions = append(positions, m.acqPos[cur])
		if o == th {
			return positions
		}
		seen[cur] = true
		next, waiting := m.reqLock[o]
		if !waiting || seen[next] {
			return nil
		}
		cur = next
	}
}

// occupants are the threads that hold, or are approved to wait for, a lock
// at position p, plus th pretended at p.
func (m *refModel) occupants(p, th, at int) []int {
	var out []int
	add := func(u int) {
		if !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	if p == at {
		add(th)
	}
	for l := range m.word {
		if u, held := m.holder(l); held && m.acqPos[l] == p {
			add(u)
		}
	}
	for u, q := range m.reqPos {
		if q == p {
			add(u)
		}
	}
	return out
}

// instantiable reports whether distinct threads can fill every slot of s
// with th pretended present at p.
func (m *refModel) instantiable(s []int, th, p int) bool {
	var fill func(i int, used []int) bool
	fill = func(i int, used []int) bool {
		if i == len(s) {
			return true
		}
		for _, u := range m.occupants(s[i], th, p) {
			if !slices.Contains(used, u) && fill(i+1, append(used, u)) {
				return true
			}
		}
		return false
	}
	return fill(0, nil)
}

// schedFrame is position p's frame; schedKey is the key of a deadlock
// signature over the given positions, as the engine computes it.
func schedFrame(p int) Frame { return fr("sched.P", "m", p) }

func schedKey(positions []int) string {
	outers := make([]string, len(positions))
	for i, p := range positions {
		outers[i] = CallStack{schedFrame(p)}.Key()
	}
	return SignatureKey(DeadlockSig, outers)
}

// keys returns the model's signature keys, sorted.
func (m *refModel) keys() string {
	out := make([]string, len(m.sigs))
	for i, s := range m.sigs {
		out[i] = schedKey(s)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
