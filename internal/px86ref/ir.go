// Package px86ref is an independent reference for the persistency semantics
// the checker simulates: the paper's §2 / Table 1 / Figure 8 rules restated
// as an explicit persist-buffer machine in the style of "Taming x86-TSO
// Persistency" (Khyzha & Lahav, POPL 2021), and a brute-force enumerator over
// it. It imports only the standard library and reads no engine state, so a
// program run through it and through the checker gives two answers to the
// same question: which post-failure observations can recovery make?
//
// Programs are op lists (ir.go), one thread each, for the pre-failure run and
// for recovery. The machine is px86.go; Observe and Images (enumerate.go)
// crash it at every reachable state; Generate (gen.go) draws random programs.
package px86ref

import (
	"fmt"
	"strings"
)

// Kind is an operation of the IR.
type Kind uint8

const (
	Store      Kind = iota // Size bytes of Val at Addr, little-endian
	Load                   // 8 bytes at Addr
	Clflush                // the cache line of Addr
	Clflushopt             // the cache line of Addr
	Clwb                   // the cache line of Addr; identical to Clflushopt (§2)
	Sfence
	Mfence
	CAS      // locked: if the 8 bytes at Addr hold Old, write Val there
	FetchAdd // locked: add Val to the 8 bytes at Addr
)

// Op is one operation. Addr is a byte offset from the pool's root; a store
// or load never crosses a cache line. A Load with a Name reports
// "Name=value" when its recovery completes.
type Op struct {
	Kind     Kind
	Addr     uint64
	Size     int // Store: 1, 2, 4 or 8; Load, CAS and FetchAdd: 8
	Val, Old uint64
	Name     string // Load only
}

// Program is one thread's pre-failure run and the recovery that runs after
// every failure.
type Program struct {
	Run, Recover []Op
}

// LineSize is the cache line, the unit of persistence.
const LineSize = 64

// The constructors below read like the guest calls they stand for.

func St(addr uint64, size int, val uint64) Op {
	return Op{Kind: Store, Addr: addr, Size: size, Val: val}
}
func St64(addr, val uint64) Op         { return St(addr, 8, val) }
func Ld64(name string, addr uint64) Op { return Op{Kind: Load, Addr: addr, Size: 8, Name: name} }
func Flush(addr uint64) Op             { return Op{Kind: Clflush, Addr: addr} }
func FlushOpt(addr uint64) Op          { return Op{Kind: Clflushopt, Addr: addr} }
func WB(addr uint64) Op                { return Op{Kind: Clwb, Addr: addr} }
func SFence() Op                       { return Op{Kind: Sfence} }
func MFence() Op                       { return Op{Kind: Mfence} }
func Cas(addr, old, val uint64) Op     { return Op{Kind: CAS, Addr: addr, Size: 8, Old: old, Val: val} }
func Add(addr, delta uint64) Op        { return Op{Kind: FetchAdd, Addr: addr, Size: 8, Val: delta} }

// Observation renders the values a completed recovery read, in op order:
// "x=1 y=0". Both sides of a comparison format through it.
func Observation(names []string, vals []uint64) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, vals[i])
	}
	return b.String()
}

func (k Kind) String() string {
	return [...]string{"store", "load", "clflush", "clflushopt", "clwb", "sfence", "mfence", "cas", "fetchadd"}[k]
}

func (o Op) String() string {
	switch o.Kind {
	case Store:
		return fmt.Sprintf("store%d(%#x, %#x)", o.Size*8, o.Addr, o.Val)
	case Load:
		return fmt.Sprintf("%s=load%d(%#x)", o.Name, o.Size*8, o.Addr)
	case CAS:
		return fmt.Sprintf("cas(%#x, %#x, %#x)", o.Addr, o.Old, o.Val)
	case FetchAdd:
		return fmt.Sprintf("fetchadd(%#x, %#x)", o.Addr, o.Val)
	case Sfence, Mfence:
		return o.Kind.String()
	}
	return fmt.Sprintf("%v(%#x)", o.Kind, o.Addr)
}
