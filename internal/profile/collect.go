package profile

import (
	"context"
	"fmt"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
)

// CollectContext profiles a program by functional execution, the role the
// modified sim-safe plays in the paper's Figure 1. (On a real workload a
// binary instrumentation tool such as ATOM or Pin would produce the same
// event stream.) The observer polls ctx every 64 Ki retired instructions,
// stopping with the context's cancellation cause, and ticks any
// supervision heartbeat carried by ctx at the same cadence — a long
// profiling pass under a watchdog never reads as a wedged task.
func CollectContext(ctx context.Context, p *prog.Program, opts Options) (*Profile, error) {
	m, err := funcsim.New(p)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	c := newCollector(ctx, p, opts)
	if _, err := m.RunBatch(funcsim.Limits{MaxInsts: opts.MaxInsts}, c.observe); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return c.finish(), nil
}

// slot is one static instruction's row in the collector's flat table,
// indexed by block base + index.
type slot struct {
	src   [2]isa.Reg // register sources other than RZero; nsrc are valid
	nsrc  uint8
	dest  isa.Reg // register written, NoReg for none or RZero
	class isa.Class
	flags uint8
}

// slot flags.
const (
	slotMem    uint8 = 1 << iota // a load or store
	slotBranch                   // a conditional branch
	slotEnd                      // the last instruction of its block
)

// depBucketOf is DepBucket for distances up to 32; longer ones fall in
// the last bucket.
var depBucketOf = func() (t [33]uint8) {
	for d := range t {
		t[d] = uint8(DepBucket(uint64(d)))
	}
	return t
}()

// nodeState is an SFG node under construction. A block has at most two
// successors, so the counts live in a short slice until finish folds
// them into Node.Succ.
type nodeState struct {
	node *Node
	succ []succCount
}

type succCount struct {
	block int
	n     uint64
}

// collector builds a Profile from the batched funcsim stream. Every
// per-instruction lookup is a slice read on a table built once per
// program.
type collector struct {
	pr       *Profile
	p        *prog.Program
	perBlock bool
	base     []int          // flat id of each block's first instruction
	slots    []slot         // by flat id
	mem      []*MemStat     // by flat id; nil until the first access
	br       []*BranchStat  // by flat id; nil until the first execution
	nodes    [][]*nodeState // per block; the last one entered first
	states   []*nodeState   // in creation order
	cur      *nodeState
	prev     int
	// lastWrite is the seq+1 of each register's last producer (0 = never).
	lastWrite [isa.NumRegs]uint64

	ctx     context.Context
	tick    func()
	watched bool
}

func newCollector(ctx context.Context, p *prog.Program, opts Options) *collector {
	c := &collector{
		pr: &Profile{
			Name:     p.Name,
			Nodes:    make(map[NodeKey]*Node),
			Mem:      make(map[StaticRef]*MemStat),
			Branches: make(map[StaticRef]*BranchStat),
		},
		p:        p,
		perBlock: opts.PerBlockNodes,
		base:     make([]int, len(p.Blocks)),
		slots:    make([]slot, 0, p.NumStaticInsts()),
		nodes:    make([][]*nodeState, len(p.Blocks)),
		prev:     -1,
		ctx:      ctx,
		tick:     supervise.TickerFrom(ctx),
	}
	c.watched = ctx.Done() != nil || c.tick != nil
	var srcBuf [2]isa.Reg
	for bi := range p.Blocks {
		c.base[bi] = len(c.slots)
		insts := p.Blocks[bi].Insts
		for ii := range insts {
			in := &insts[ii]
			s := slot{dest: in.Dest(), class: in.Op.Class()}
			if s.dest == isa.RZero {
				s.dest = isa.NoReg
			}
			for _, r := range in.Sources(srcBuf[:0]) {
				if r != isa.RZero {
					s.src[s.nsrc] = r
					s.nsrc++
				}
			}
			if in.Op.IsMem() {
				s.flags |= slotMem
			}
			if in.Op.IsBranch() {
				s.flags |= slotBranch
			}
			if ii == len(insts)-1 {
				s.flags |= slotEnd
			}
			c.slots = append(c.slots, s)
		}
	}
	c.mem = make([]*MemStat, len(c.slots))
	c.br = make([]*BranchStat, len(c.slots))
	return c
}

// observe is the funcsim.BatchObserver.
func (c *collector) observe(events []funcsim.Event) error {
	if c.watched {
		first, last := events[0].Seq, events[len(events)-1].Seq
		if first&(1<<16-1) == 0 || first>>16 != last>>16 {
			if err := supervise.Cause(c.ctx); err != nil {
				return err
			}
			if c.tick != nil {
				c.tick()
			}
		}
	}
	for i := range events {
		ev := &events[i]
		if ev.Index == 0 {
			c.enter(ev.Block)
		}
		n := c.cur.node
		id := c.base[ev.Block] + ev.Index
		s := &c.slots[id]
		n.ClassCounts[s.class]++
		for _, r := range s.src[:s.nsrc] {
			if lw := c.lastWrite[r]; lw != 0 {
				if d := ev.Seq + 1 - lw; d < uint64(len(depBucketOf)) {
					n.DepDist[depBucketOf[d]]++
				} else {
					n.DepDist[NumDepBuckets-1]++
				}
			}
		}
		if s.dest != isa.NoReg {
			c.lastWrite[s.dest] = ev.Seq + 1
		}
		if s.flags == 0 {
			continue
		}
		if s.flags&slotMem != 0 {
			ms := c.mem[id]
			if ms == nil {
				ms = &MemStat{Ref: StaticRef{ev.Block, ev.Index}, Op: ev.Inst.Op, strideHist: make(map[int64]uint64), FirstAddr: ev.Addr}
				c.mem[id] = ms
				c.pr.Mem[ms.Ref] = ms
			}
			ms.record(ev.Addr)
		}
		if s.flags&slotBranch != 0 {
			bs := c.br[id]
			if bs == nil {
				bs = &BranchStat{Ref: StaticRef{ev.Block, ev.Index}}
				c.br[id] = bs
				c.pr.Branches[bs.Ref] = bs
			}
			bs.Count++
			if ev.Taken {
				bs.Taken++
			}
			if bs.seen && bs.lastDir != ev.Taken {
				bs.Transitions++
			}
			bs.lastDir = ev.Taken
			bs.seen = true
		}
		if s.flags&slotEnd != 0 {
			if ev.NextBlock >= 0 {
				c.cur.addSucc(ev.NextBlock)
			}
			c.prev = ev.Block
		}
	}
	c.pr.TotalInsts += uint64(len(events))
	return nil
}

// enter starts a new instance of block, in the context of the block that
// ran before it (or of none, for per-block nodes).
func (c *collector) enter(block int) {
	prev := c.prev
	if c.perBlock {
		prev = -1
	}
	list := c.nodes[block]
	for i, st := range list {
		if st.node.Key.Prev == prev {
			list[0], list[i] = st, list[0]
			st.node.Count++
			c.cur = st
			return
		}
	}
	key := NodeKey{Prev: prev, Block: block}
	n := &Node{
		Key:   key,
		Count: 1,
		Size:  len(c.p.Blocks[block].Insts),
		Term:  termKind(c.p.Blocks[block].Terminator()),
		Succ:  make(map[int]uint64),
	}
	c.pr.Nodes[key] = n
	st := &nodeState{node: n}
	c.states = append(c.states, st)
	list = append(list, st)
	list[0], list[len(list)-1] = st, list[0]
	c.nodes[block] = list
	c.cur = st
}

func (st *nodeState) addSucc(block int) {
	for i := range st.succ {
		if st.succ[i].block == block {
			st.succ[i].n++
			return
		}
	}
	st.succ = append(st.succ, succCount{block: block, n: 1})
}

// finish folds the per-node successor counts into Node.Succ, sums the
// global histograms from the nodes' (every retired instruction belongs
// to exactly one node instance), and finalizes the profile.
func (c *collector) finish() *Profile {
	pr := c.pr
	for _, st := range c.states {
		n := st.node
		for _, sc := range st.succ {
			n.Succ[sc.block] += sc.n
		}
		st.succ = nil
		for k, v := range n.ClassCounts {
			pr.GlobalMix[k] += v
		}
		for k, v := range n.DepDist {
			pr.GlobalDepDist[k] += v
		}
	}
	pr.finalize()
	return pr
}
