package profile

import (
	"context"
	"fmt"
	"sort"

	"perfclone/internal/funcsim"
	"perfclone/internal/isa"
	"perfclone/internal/prog"
	"perfclone/internal/supervise"
)

// This file keeps the original map-based, per-event profile collector
// as an independent reference for CollectContext. It shares only the
// Profile types, termKind and DepBucket with the production collector:
// it runs funcsim's per-event Observer, finds nodes and static-op statistics through the
// Profile maps, writes every stride to strideHist as it happens, and
// finalizes with its own copy of the derived-statistics pass. Do not
// optimize it; its value is that it is obviously what the paper
// describes.

// collectReference profiles p the way CollectContext must, one event at
// a time.
func collectReference(ctx context.Context, p *prog.Program, opts Options) (*Profile, error) {
	pr := &Profile{
		Name:     p.Name,
		Nodes:    make(map[NodeKey]*Node),
		Mem:      make(map[StaticRef]*MemStat),
		Branches: make(map[StaticRef]*BranchStat),
	}
	var lastWrite [isa.NumRegs]uint64 // seq+1 of last producer; 0 = never
	prevBlock := -1
	var curNode *Node
	var srcBuf [2]isa.Reg
	tick := supervise.TickerFrom(ctx)
	watched := ctx.Done() != nil || tick != nil

	obs := func(ev *funcsim.Event) error {
		if watched && ev.Seq&(1<<16-1) == 0 {
			if err := supervise.Cause(ctx); err != nil {
				return err
			}
			if tick != nil {
				tick()
			}
		}
		// New block instance?
		if ev.Index == 0 {
			key := NodeKey{Prev: prevBlock, Block: ev.Block}
			if opts.PerBlockNodes {
				key.Prev = -1
			}
			n := pr.Nodes[key]
			if n == nil {
				n = &Node{
					Key:  key,
					Size: len(p.Blocks[ev.Block].Insts),
					Term: termKind(p.Blocks[ev.Block].Terminator()),
					Succ: make(map[int]uint64),
				}
				pr.Nodes[key] = n
			}
			n.Count++
			curNode = n
		}
		in := ev.Inst
		cls := in.Op.Class()
		pr.GlobalMix[cls]++
		curNode.ClassCounts[cls]++

		// Dependency distances for register sources.
		srcs := in.Sources(srcBuf[:0])
		for _, s := range srcs {
			if s == isa.RZero {
				continue
			}
			if lw := lastWrite[s]; lw != 0 {
				d := ev.Seq - (lw - 1)
				if d == 0 {
					d = 1
				}
				b := DepBucket(d)
				pr.GlobalDepDist[b]++
				curNode.DepDist[b]++
			}
		}
		if d := in.Dest(); d != isa.NoReg && d != isa.RZero {
			lastWrite[d] = ev.Seq + 1
		}

		// Stride profiling per static memory instruction.
		if in.Op.IsMem() {
			ref := StaticRef{ev.Block, ev.Index}
			ms := pr.Mem[ref]
			if ms == nil {
				ms = &MemStat{Ref: ref, Op: in.Op, strideHist: make(map[int64]uint64), FirstAddr: ev.Addr}
				pr.Mem[ref] = ms
			}
			ms.referenceRecord(ev.Addr)
		}

		// Branch direction profiling per static branch.
		if in.Op.IsBranch() {
			ref := StaticRef{ev.Block, ev.Index}
			bs := pr.Branches[ref]
			if bs == nil {
				bs = &BranchStat{Ref: ref}
				pr.Branches[ref] = bs
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

		// Successor edge.
		if ev.Index == len(p.Blocks[ev.Block].Insts)-1 && ev.NextBlock >= 0 {
			curNode.Succ[ev.NextBlock]++
		}
		prevBlock = ev.Block
		pr.TotalInsts++
		return nil
	}

	if _, err := funcsim.RunProgram(p, funcsim.Limits{MaxInsts: opts.MaxInsts}, obs); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pr.referenceFinalize()
	return pr, nil
}

// referenceRecord updates a MemStat with the next access address.
func (ms *MemStat) referenceRecord(addr uint64) {
	ms.Count++
	if !ms.seenFirst {
		ms.seenFirst = true
		ms.lastAddr = addr
		ms.MinAddr, ms.MaxAddr = addr, addr
		ms.runLen = 1
		return
	}
	if addr < ms.MinAddr {
		ms.MinAddr = addr
	}
	if addr > ms.MaxAddr {
		ms.MaxAddr = addr
	}
	stride := int64(addr) - int64(ms.lastAddr)
	ms.strideHist[stride]++
	ms.lastAddr = addr
	// Stream runs: a run is a maximal sequence of accesses at one
	// stride. Isolated break strides (stream resets, pointer jumps) are
	// not runs; only runs of at least three accesses count toward the
	// mean stream length.
	if !ms.runValid {
		ms.runValid = true
		ms.lastStride = stride
		ms.runLen = 2
		return
	}
	if stride == ms.lastStride {
		ms.runLen++
		return
	}
	ms.referenceCloseRun()
	ms.lastStride = stride
	ms.runLen = 2
}

// referenceCloseRun folds the current run into the stream-length statistics.
func (ms *MemStat) referenceCloseRun() {
	if ms.runLen >= 3 {
		ms.runs++
		ms.runTotal += ms.runLen
	}
}

// referenceFinalize computes derived statistics and deterministic orderings.
func (pr *Profile) referenceFinalize() {
	for _, ms := range pr.Mem {
		var bestS int64
		var bestC uint64
		// Deterministic tie-break: smallest stride wins.
		strides := make([]int64, 0, len(ms.strideHist))
		for s := range ms.strideHist {
			strides = append(strides, s)
		}
		sort.Slice(strides, func(i, j int) bool { return strides[i] < strides[j] })
		for _, s := range strides {
			if c := ms.strideHist[s]; c > bestC {
				bestS, bestC = s, c
			}
		}
		ms.DominantStride = bestS
		ms.DominantCount = bestC
		// Close the trailing run, then clear the run-tracking state so a
		// second finalize (e.g. after a deserialization round-trip or a
		// defensive re-finalize) cannot fold the same trailing run into
		// the statistics twice.
		ms.referenceCloseRun()
		ms.runValid = false
		ms.runLen = 0
		if ms.runs > 0 {
			ms.MeanStreamLen = float64(ms.runTotal) / float64(ms.runs)
		} else {
			ms.MeanStreamLen = 1
		}
	}
	// A profiling budget that expires on a block's final instruction can
	// record an edge into a block that never executed (no SFG node).
	// Prune such truncation edges so every successor resolves — the
	// invariant Validate enforces at the load boundary.
	blocks := make(map[int]bool, len(pr.Nodes))
	for k := range pr.Nodes {
		blocks[k.Block] = true
	}
	for _, n := range pr.Nodes {
		for s := range n.Succ {
			if !blocks[s] {
				delete(n.Succ, s)
			}
		}
	}
	pr.NodeList = make([]*Node, 0, len(pr.Nodes))
	for _, n := range pr.Nodes {
		pr.NodeList = append(pr.NodeList, n)
	}
	sort.Slice(pr.NodeList, func(i, j int) bool {
		a, b := pr.NodeList[i].Key, pr.NodeList[j].Key
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Prev < b.Prev
	})
	pr.MemList = make([]*MemStat, 0, len(pr.Mem))
	for _, m := range pr.Mem {
		pr.MemList = append(pr.MemList, m)
	}
	sort.Slice(pr.MemList, func(i, j int) bool {
		a, b := pr.MemList[i].Ref, pr.MemList[j].Ref
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Index < b.Index
	})
	pr.BranchList = make([]*BranchStat, 0, len(pr.Branches))
	for _, bs := range pr.Branches {
		pr.BranchList = append(pr.BranchList, bs)
	}
	sort.Slice(pr.BranchList, func(i, j int) bool {
		a, b := pr.BranchList[i].Ref, pr.BranchList[j].Ref
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Index < b.Index
	})
}
