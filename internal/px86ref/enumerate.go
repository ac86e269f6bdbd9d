package px86ref

import "sort"

// crashes enumerates every state r reaches, depth first with a visited set,
// and returns the distinct post-failure images of a crash at each (rule 4).
func (r *run) crashes() [][]byte {
	seen := map[string]bool{}
	cuts := map[string]bool{}
	var out [][]byte
	var visit func(s []byte)
	visit = func(s []byte) {
		if seen[string(s)] {
			return
		}
		seen[string(s)] = true
		if cut := string(s[2 : 2+len(r.stores)]); !cuts[cut] {
			cuts[cut] = true
			out = append(out, r.image(s))
		}
		r.next(s, visit)
	}
	visit(r.start())
	return out
}

// Observe returns, sorted, every observation p's recovery can report when the
// pre-failure run fails at any reachable state and each recovery may itself
// fail, up to failures failures in all (1 or 2). A recovery that completes
// reports what it read (Observation); one that fails reports nothing.
func Observe(p Program, failures int) []string {
	lay := newLayout(p.Run, p.Recover)
	obs := map[string]bool{}
	images := newRun(p.Run, lay, make([]byte, len(lay)*LineSize)).crashes()
	for f := 1; f <= failures; f++ {
		next, seen := [][]byte(nil), map[string]bool{}
		for _, img := range images {
			r := newRun(p.Recover, lay, img)
			obs[r.obs] = true
			if f == failures {
				continue
			}
			for _, c := range r.crashes() {
				if !seen[string(c)] {
					seen[string(c)] = true
					next = append(next, c)
				}
			}
		}
		images = next
	}
	out := make([]string, 0, len(obs))
	for o := range obs {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Images returns the distinct persistent images a failure of run can leave,
// each mapping the offset of every byte of every line run touches to its
// value, for a recovery that is not written in the IR.
func Images(run []Op) []map[uint64]byte {
	lay := newLayout(run)
	var out []map[uint64]byte
	for _, img := range newRun(run, lay, make([]byte, len(lay)*LineSize)).crashes() {
		m := make(map[uint64]byte, len(img))
		for line, slot := range lay {
			for b := range uint64(LineSize) {
				m[line*LineSize+b] = img[slot*LineSize+int(b)]
			}
		}
		out = append(out, m)
	}
	return out
}
