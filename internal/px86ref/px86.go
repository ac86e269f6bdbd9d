package px86ref

// The machine: one thread's Px86 execution as an explicit persist-buffer
// system. Every rule of the model is in this file.
//
//  1. Issue. A store, clflush, clflushopt, clwb or sfence enters the tail of
//     the thread's FIFO store buffer. A load reads the newest earlier store
//     of its own thread, buffered or not, else memory (Write→Read ✗ with
//     bypassing). An mfence, and a locked RMW, issue only once the buffer is
//     empty, complete every pending writeback (rule 2c), and an RMW's write
//     goes straight to memory: mfence; load; store; mfence (§4).
//  2. Propagate. The oldest buffer entry leaves it:
//     a. a store reaches memory and the tail of its line's persist buffer;
//     b. a clflush persists every store its line received before it;
//     c. a clflushopt or clwb records a pending writeback of the stores its
//        line received before it — the next sfence, mfence or RMW completes
//        it, and until then nothing forces them;
//     d. an sfence completes every pending writeback.
//  3. Persist. The oldest store of any line's persist buffer persists: a
//     line persists a prefix of its stores, in the order they reached
//     memory, and lines persist independently of each other.
//  4. Crash. At any state the persisted stores are the post-failure image;
//     buffers, pending writebacks and unpersisted stores are lost.
//
// Because one thread's buffer is FIFO and a load reads its own newest store,
// the values a run reads and writes depend only on the image it starts from
// (run, below); the machine state is what remains nondeterministic: how far
// the thread has issued and propagated, and per line how many of its stores
// have persisted and how many a pending writeback covers.

// layout maps each cache line a program touches to a slot of an image.
type layout map[uint64]int

func newLayout(lists ...[]Op) layout {
	l := layout{}
	for _, ops := range lists {
		for _, op := range ops {
			if op.Kind == Sfence || op.Kind == Mfence {
				continue
			}
			if _, ok := l[op.Addr/LineSize]; !ok {
				l[op.Addr/LineSize] = len(l)
			}
		}
	}
	return l
}

// offset is the image index of byte a.
func (l layout) offset(a uint64) int { return l[a/LineSize]*LineSize + int(a%LineSize) }

// run is one execution of ops from the image base, with its values fixed.
type run struct {
	ops    []Op
	lay    layout
	base   []byte
	slot   []int    // per op: its line's slot (fences: -1)
	writes [][]byte // per op: the bytes it writes; nil for none (a failed CAS writes none)
	stores [][]int  // per slot: the ops that write it, in program order
	obs    string   // what the run reports if it completes
}

func newRun(ops []Op, lay layout, base []byte) *run {
	r := &run{ops: ops, lay: lay, base: base, slot: make([]int, len(ops)),
		writes: make([][]byte, len(ops)), stores: make([][]int, len(lay))}
	mem := append([]byte(nil), base...)
	var names []string
	var vals []uint64
	for i, op := range ops {
		r.slot[i] = -1
		if op.Kind == Sfence || op.Kind == Mfence {
			continue
		}
		r.slot[i] = lay[op.Addr/LineSize]
		at := lay.offset(op.Addr)
		if op.Size > 0 && int(op.Addr%LineSize)+op.Size > LineSize {
			panic("px86ref: " + op.String() + " crosses a cache line")
		}
		var cur uint64
		for b := op.Size - 1; b >= 0; b-- {
			cur = cur<<8 | uint64(mem[at+b])
		}
		write, val := false, op.Val
		switch op.Kind {
		case Store:
			write = true
		case CAS:
			write = cur == op.Old
		case FetchAdd:
			write, val = true, cur+op.Val
		}
		if op.Kind == Load && op.Name != "" {
			names, vals = append(names, op.Name), append(vals, cur)
		}
		if write {
			w := make([]byte, op.Size)
			for b := range w {
				w[b] = byte(val >> (8 * b))
			}
			copy(mem[at:], w)
			r.writes[i] = w
			r.stores[r.slot[i]] = append(r.stores[r.slot[i]], i)
		}
	}
	r.obs = Observation(names, vals)
	return r
}

// A state is [pc, head, done[slot]..., wb[slot]...]: ops[:pc] have issued,
// the buffered ones of ops[:head] have propagated, done counts the persisted
// stores of each line and wb the stores a pending writeback covers (0 when
// it covers nothing unpersisted).
func (r *run) start() []byte { return make([]byte, 2+2*len(r.stores)) }

func buffered(k Kind) bool { return k <= Sfence && k != Load }

// propagated counts the stores line l received before op head.
func (r *run) propagated(l, head int) int {
	n := 0
	for n < len(r.stores[l]) && r.stores[l][n] < head {
		n++
	}
	return n
}

// next calls f with each state one step of rules 1–3 from s.
func (r *run) next(s []byte, f func([]byte)) {
	pc, head, n := int(s[0]), int(s[1]), len(r.stores)
	done := s[2 : 2+n]
	step := func(edit func(t []byte)) {
		t := append([]byte(nil), s...)
		edit(t)
		f(r.norm(t))
	}
	complete := func(t []byte) { // rule 2c's pending writebacks complete
		for l := range n {
			t[2+l] = max(t[2+l], t[2+n+l])
		}
	}
	if pc < len(r.ops) { // rule 1
		switch k := r.ops[pc].Kind; {
		case buffered(k) || k == Load:
			step(func(t []byte) { t[0]++ })
		case head == pc: // mfence and RMW
			step(func(t []byte) { complete(t); t[0], t[1] = byte(pc+1), byte(pc+1) })
		}
	}
	if head < pc { // rule 2
		l := r.slot[head]
		step(func(t []byte) {
			switch r.ops[head].Kind {
			case Clflush:
				t[2+l] = max(t[2+l], byte(r.propagated(l, head)))
			case Clflushopt, Clwb:
				t[2+n+l] = max(t[2+n+l], byte(r.propagated(l, head)))
			case Sfence:
				complete(t)
			}
			t[1]++
		})
	}
	for l := range n { // rule 3
		if int(done[l]) < r.propagated(l, head) {
			step(func(t []byte) { t[2+l]++ })
		}
	}
}

// norm moves head past loads, which never enter the buffer, and drops
// writebacks with nothing left to force, so equal machines compare equal.
func (r *run) norm(t []byte) []byte {
	for int(t[1]) < int(t[0]) && !buffered(r.ops[t[1]].Kind) {
		t[1]++
	}
	n := len(r.stores)
	for l := range n {
		if t[2+n+l] <= t[2+l] {
			t[2+n+l] = 0
		}
	}
	return t
}

// image is rule 4: the base with each line's first done stores applied.
func (r *run) image(s []byte) []byte {
	img := append([]byte(nil), r.base...)
	for l, ops := range r.stores {
		for _, i := range ops[:s[2+l]] {
			copy(img[r.lay.offset(r.ops[i].Addr):], r.writes[i])
		}
	}
	return img
}
