// Package funcsim executes programs functionally — the role SimpleScalar's
// sim-safe plays in the paper. It maintains architected register and memory
// state, follows control flow, and reports every retired instruction to an
// optional trace observer. The profiler (internal/profile) and the timing
// simulator (internal/uarch) are both built on the dynamic stream it
// produces.
package funcsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"perfclone/internal/isa"
	"perfclone/internal/prog"
)

// Event describes one retired dynamic instruction.
type Event struct {
	// Seq is the dynamic sequence number, starting at 0.
	Seq uint64
	// Block and Index locate the static instruction.
	Block, Index int
	// PC is the synthetic text address of the instruction.
	PC uint64
	// Inst is the instruction executed.
	Inst *isa.Inst
	// Addr is the effective address for loads/stores (0 otherwise).
	Addr uint64
	// Taken reports the branch direction for conditional branches.
	Taken bool
	// NextBlock is the block executed next (-1 after halt).
	NextBlock int
}

// Observer receives each retired instruction. Returning a non-nil error
// aborts simulation with that error.
type Observer func(ev *Event) error

// BatchObserver receives retired instructions in chunks of up to
// EventChunk events. The slice is reused between calls; implementations
// must not retain it. Returning a non-nil error aborts simulation with
// that error. Because the machine executes a whole chunk before the
// observer sees it, architected state may be ahead of the last delivered
// event when a BatchObserver aborts.
type BatchObserver func(events []Event) error

// EventChunk is the number of events buffered between BatchObserver
// deliveries. It balances per-call overhead against cache footprint
// (4096 events ≈ 360 KB).
const EventChunk = 4096

// Limits bounds a simulation run.
type Limits struct {
	// MaxInsts aborts the run after this many dynamic instructions
	// (0 = no limit).
	MaxInsts uint64
}

// Result summarizes a completed run.
type Result struct {
	// Insts is the number of retired dynamic instructions.
	Insts uint64
	// Halted reports whether the program reached a halt instruction (as
	// opposed to hitting Limits.MaxInsts).
	Halted bool
}

// ErrLimit is returned inside Result handling when the instruction budget
// is exhausted; Run does not surface it as an error.
var errLimit = errors.New("funcsim: instruction limit reached")

// Machine is the architected state of one program run.
type Machine struct {
	prog *prog.Program
	ireg [isa.NumIntRegs]int64
	freg [isa.NumFPRegs]float64
	mem  []byte
}

// New creates a Machine with the program's initial memory image loaded.
func New(p *prog.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: p, mem: make([]byte, p.MemSize)}
	for _, s := range p.Segments {
		copy(m.mem[s.Base:], s.Data)
	}
	return m, nil
}

// IntReg returns the value of integer register i.
func (m *Machine) IntReg(i int) int64 { return m.ireg[i] }

// FPReg returns the value of floating-point register i.
func (m *Machine) FPReg(i int) float64 { return m.freg[i] }

// ReadMem copies n bytes at addr.
func (m *Machine) ReadMem(addr uint64, n int) ([]byte, error) {
	if addr+uint64(n) > uint64(len(m.mem)) {
		return nil, fmt.Errorf("funcsim: read [%d,%d) out of range (mem %d)", addr, addr+uint64(n), len(m.mem))
	}
	out := make([]byte, n)
	copy(out, m.mem[addr:])
	return out, nil
}

func (m *Machine) get(r isa.Reg) int64 {
	if r == isa.RZero {
		return 0
	}
	return m.ireg[r]
}

func (m *Machine) getF(r isa.Reg) float64 {
	return m.freg[r-isa.NumIntRegs]
}

func (m *Machine) set(r isa.Reg, v int64) {
	if r != isa.RZero {
		m.ireg[r] = v
	}
}

func (m *Machine) setF(r isa.Reg, v float64) {
	m.freg[r-isa.NumIntRegs] = v
}

func (m *Machine) checkAddr(addr uint64, n int) error {
	if addr+uint64(n) > uint64(len(m.mem)) || addr+uint64(n) < addr {
		return fmt.Errorf("funcsim: %s access at %d width %d out of range (mem %d)", m.prog.Name, addr, n, len(m.mem))
	}
	return nil
}

// Run executes the program from its entry block until halt, the limit, or
// an error. obs may be nil. Internally events are produced in chunks (see
// RunBatch); the per-event contract is preserved: obs sees every retired
// instruction in order, and an observer error aborts with Result.Insts
// counting only the events delivered before the erroring one.
func (m *Machine) Run(lim Limits, obs Observer) (Result, error) {
	if obs == nil {
		return m.RunBatch(lim, nil)
	}
	var consumed uint64
	res, err := m.RunBatch(lim, func(events []Event) error {
		for i := range events {
			if err := obs(&events[i]); err != nil {
				consumed += uint64(i)
				return err
			}
		}
		consumed += uint64(len(events))
		return nil
	})
	if err != nil {
		// Per-event semantics: the erroring instruction (and anything the
		// batched engine executed beyond it) is not counted.
		return Result{Insts: consumed}, err
	}
	return res, nil
}

// RunBatch executes the program like Run but delivers retired-instruction
// events to obs in chunks of up to EventChunk, avoiding a function call
// and Event construction per instruction on the hot path. obs may be nil
// (pure execution). On an execution error the chunk accumulated so far is
// flushed before the error is returned, so obs still sees every retired
// instruction.
func (m *Machine) RunBatch(lim Limits, obs BatchObserver) (Result, error) {
	var res Result
	// Events are written field by field into the reused chunk; n is the
	// number of slots filled since the last flush.
	var buf []Event
	n := 0
	if obs != nil {
		buf = make([]Event, EventChunk)
	}
	flush := func() error {
		if n == 0 {
			return nil
		}
		err := obs(buf[:n])
		n = 0
		return err
	}
	bi := m.prog.Entry
	for bi >= 0 {
		blk := &m.prog.Blocks[bi]
		next := bi + 1 // fall-through default
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			if lim.MaxInsts > 0 && res.Insts >= lim.MaxInsts {
				return res, flush()
			}
			addr, taken, nb, err := m.exec(in)
			if err != nil {
				if ferr := flush(); ferr != nil {
					return res, ferr
				}
				return res, err
			}
			if nb != fallThrough {
				next = nb
			}
			if obs != nil {
				ev := &buf[n]
				ev.Seq = res.Insts
				ev.Block = bi
				ev.Index = ii
				ev.PC = m.prog.InstAddr(bi, ii)
				ev.Inst = in
				ev.Addr = addr
				ev.Taken = taken
				ev.NextBlock = next
				if in.Op == isa.OpHalt {
					ev.NextBlock = -1
				}
				if n++; n == len(buf) {
					if err := flush(); err != nil {
						return res, err
					}
				}
			}
			res.Insts++
			if in.Op == isa.OpHalt {
				res.Halted = true
				return res, flush()
			}
		}
		bi = next
		if bi >= len(m.prog.Blocks) {
			if err := flush(); err != nil {
				return res, err
			}
			return res, fmt.Errorf("funcsim: %s fell off program at block %d", m.prog.Name, bi)
		}
	}
	return res, flush()
}

// fallThrough is the sentinel exec returns for non-control instructions.
const fallThrough = -2

// exec executes one instruction, returning the memory address touched (for
// loads/stores), the branch direction, and the next block (fallThrough when
// control does not transfer).
func (m *Machine) exec(in *isa.Inst) (addr uint64, taken bool, next int, err error) {
	next = fallThrough
	switch in.Op {
	case isa.OpAdd:
		m.set(in.Rd, m.get(in.Rs1)+m.get(in.Rs2))
	case isa.OpSub:
		m.set(in.Rd, m.get(in.Rs1)-m.get(in.Rs2))
	case isa.OpAnd:
		m.set(in.Rd, m.get(in.Rs1)&m.get(in.Rs2))
	case isa.OpOr:
		m.set(in.Rd, m.get(in.Rs1)|m.get(in.Rs2))
	case isa.OpXor:
		m.set(in.Rd, m.get(in.Rs1)^m.get(in.Rs2))
	case isa.OpShl:
		m.set(in.Rd, m.get(in.Rs1)<<(uint64(m.get(in.Rs2))&63))
	case isa.OpShr:
		m.set(in.Rd, int64(uint64(m.get(in.Rs1))>>(uint64(m.get(in.Rs2))&63)))
	case isa.OpSar:
		m.set(in.Rd, m.get(in.Rs1)>>(uint64(m.get(in.Rs2))&63))
	case isa.OpAddi:
		m.set(in.Rd, m.get(in.Rs1)+in.Imm)
	case isa.OpLui:
		m.set(in.Rd, in.Imm)
	case isa.OpSlt:
		m.set(in.Rd, b2i(m.get(in.Rs1) < m.get(in.Rs2)))
	case isa.OpSltu:
		m.set(in.Rd, b2i(uint64(m.get(in.Rs1)) < uint64(m.get(in.Rs2))))
	case isa.OpMul:
		m.set(in.Rd, m.get(in.Rs1)*m.get(in.Rs2))
	case isa.OpDiv:
		d := m.get(in.Rs2)
		if d == 0 {
			m.set(in.Rd, 0)
		} else {
			m.set(in.Rd, m.get(in.Rs1)/d)
		}
	case isa.OpRem:
		d := m.get(in.Rs2)
		if d == 0 {
			m.set(in.Rd, 0)
		} else {
			m.set(in.Rd, m.get(in.Rs1)%d)
		}

	case isa.OpFAdd:
		m.setF(in.Rd, m.getF(in.Rs1)+m.getF(in.Rs2))
	case isa.OpFSub:
		m.setF(in.Rd, m.getF(in.Rs1)-m.getF(in.Rs2))
	case isa.OpFMul:
		m.setF(in.Rd, m.getF(in.Rs1)*m.getF(in.Rs2))
	case isa.OpFDiv:
		m.setF(in.Rd, m.getF(in.Rs1)/m.getF(in.Rs2))
	case isa.OpFNeg:
		m.setF(in.Rd, -m.getF(in.Rs1))
	case isa.OpFCmp:
		m.set(in.Rd, b2i(m.getF(in.Rs1) < m.getF(in.Rs2)))
	case isa.OpCvtIF:
		m.setF(in.Rd, float64(m.get(in.Rs1)))
	case isa.OpCvtFI:
		f := m.getF(in.Rs1)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			m.set(in.Rd, 0)
		} else {
			m.set(in.Rd, int64(f))
		}

	case isa.OpLd, isa.OpLd4, isa.OpLd1, isa.OpFLd:
		addr = uint64(m.get(in.Rs1) + in.Imm)
		n := in.Op.MemBytes()
		if err = m.checkAddr(addr, n); err != nil {
			return
		}
		switch in.Op {
		case isa.OpLd:
			m.set(in.Rd, int64(binary.LittleEndian.Uint64(m.mem[addr:])))
		case isa.OpLd4:
			m.set(in.Rd, int64(int32(binary.LittleEndian.Uint32(m.mem[addr:]))))
		case isa.OpLd1:
			m.set(in.Rd, int64(m.mem[addr]))
		case isa.OpFLd:
			m.setF(in.Rd, math.Float64frombits(binary.LittleEndian.Uint64(m.mem[addr:])))
		}

	case isa.OpSt, isa.OpSt4, isa.OpSt1, isa.OpFSt:
		addr = uint64(m.get(in.Rs1) + in.Imm)
		n := in.Op.MemBytes()
		if err = m.checkAddr(addr, n); err != nil {
			return
		}
		switch in.Op {
		case isa.OpSt:
			binary.LittleEndian.PutUint64(m.mem[addr:], uint64(m.get(in.Rs2)))
		case isa.OpSt4:
			binary.LittleEndian.PutUint32(m.mem[addr:], uint32(m.get(in.Rs2)))
		case isa.OpSt1:
			m.mem[addr] = byte(m.get(in.Rs2))
		case isa.OpFSt:
			binary.LittleEndian.PutUint64(m.mem[addr:], math.Float64bits(m.getF(in.Rs2)))
		}

	case isa.OpBeq:
		taken = m.get(in.Rs1) == m.get(in.Rs2)
	case isa.OpBne:
		taken = m.get(in.Rs1) != m.get(in.Rs2)
	case isa.OpBlt:
		taken = m.get(in.Rs1) < m.get(in.Rs2)
	case isa.OpBge:
		taken = m.get(in.Rs1) >= m.get(in.Rs2)
	case isa.OpBltu:
		taken = uint64(m.get(in.Rs1)) < uint64(m.get(in.Rs2))
	case isa.OpJmp:
		next = in.Target
	case isa.OpHalt:
		// handled by caller
	default:
		err = fmt.Errorf("funcsim: unknown op %d", in.Op)
	}
	if in.Op.IsBranch() && taken {
		next = in.Target
	}
	return
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// RunProgram is a convenience wrapper: build a machine, run it, return the
// result.
func RunProgram(p *prog.Program, lim Limits, obs Observer) (Result, error) {
	m, err := New(p)
	if err != nil {
		return Result{}, err
	}
	return m.Run(lim, obs)
}
