package profile

import (
	"fmt"
	"math"
)

// Validate sanitizes a profile at the trust boundary: a profile loaded
// from disk (or handed to the generator by any caller) is checked for the
// structural and numerical invariants CollectContext guarantees, so a
// corrupt or adversarial file is rejected with an error here instead of
// panicking — or silently emitting a wrong clone — deep inside
// synth.Generate.
//
// CollectContext-produced profiles always pass (pinned by tests);
// everything else must earn its way in.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: missing name")
	}
	if len(p.NodeList) == 0 {
		return fmt.Errorf("profile %q: no SFG nodes", p.Name)
	}
	// Block ids that exist as SFG nodes; successor edges must land here.
	// Keys and refs must be unique: Load rebuilds the lookup maps from
	// the lists, and a duplicate would leave a list entry the map (and
	// so the generator's lookups) never sees.
	blocks := make(map[int]bool, len(p.NodeList))
	keys := make(map[NodeKey]bool, len(p.NodeList))
	for _, n := range p.NodeList {
		if n == nil {
			return fmt.Errorf("profile %q: nil SFG node", p.Name)
		}
		if keys[n.Key] {
			return fmt.Errorf("profile %q: duplicate SFG node %v", p.Name, n.Key)
		}
		keys[n.Key] = true
		blocks[n.Key.Block] = true
	}
	for _, n := range p.NodeList {
		if n.Key.Block < 0 || n.Key.Prev < -1 {
			return fmt.Errorf("profile %q: node %v has invalid key", p.Name, n.Key)
		}
		if n.Size <= 0 {
			return fmt.Errorf("profile %q: node %v has size %d", p.Name, n.Key, n.Size)
		}
		if n.Term > TermHalt {
			return fmt.Errorf("profile %q: node %v has unknown terminator kind %d", p.Name, n.Key, n.Term)
		}
		var classTotal uint64
		for _, c := range n.ClassCounts {
			classTotal += c
		}
		if n.Count > 0 && classTotal == 0 {
			return fmt.Errorf("profile %q: node %v executed %d times but has an empty class histogram", p.Name, n.Key, n.Count)
		}
		for s := range n.Succ {
			if !blocks[s] {
				return fmt.Errorf("profile %q: node %v has dangling successor block %d", p.Name, n.Key, s)
			}
		}
	}
	refs := make(map[StaticRef]bool, len(p.MemList))
	for _, m := range p.MemList {
		if m == nil {
			return fmt.Errorf("profile %q: nil mem stat", p.Name)
		}
		if refs[m.Ref] {
			return fmt.Errorf("profile %q: duplicate mem op %v", p.Name, m.Ref)
		}
		refs[m.Ref] = true
		if m.Ref.Block < 0 || m.Ref.Index < 0 {
			return fmt.Errorf("profile %q: mem op has invalid ref %v", p.Name, m.Ref)
		}
		if !m.Op.IsMem() {
			return fmt.Errorf("profile %q: mem op %v has non-memory opcode %v", p.Name, m.Ref, m.Op)
		}
		if m.MaxAddr < m.MinAddr {
			return fmt.Errorf("profile %q: mem op %v has inverted interval [%d, %d]", p.Name, m.Ref, m.MinAddr, m.MaxAddr)
		}
		if m.Count > 0 && (m.FirstAddr < m.MinAddr || m.FirstAddr > m.MaxAddr) {
			return fmt.Errorf("profile %q: mem op %v first address %d outside [%d, %d]", p.Name, m.Ref, m.FirstAddr, m.MinAddr, m.MaxAddr)
		}
		if m.DominantCount > m.Count {
			return fmt.Errorf("profile %q: mem op %v dominant-stride count %d > access count %d", p.Name, m.Ref, m.DominantCount, m.Count)
		}
		if math.IsNaN(m.MeanStreamLen) || math.IsInf(m.MeanStreamLen, 0) || m.MeanStreamLen < 0 {
			return fmt.Errorf("profile %q: mem op %v has invalid mean stream length %v", p.Name, m.Ref, m.MeanStreamLen)
		}
	}
	clear(refs)
	for _, b := range p.BranchList {
		if b == nil {
			return fmt.Errorf("profile %q: nil branch stat", p.Name)
		}
		if refs[b.Ref] {
			return fmt.Errorf("profile %q: duplicate branch %v", p.Name, b.Ref)
		}
		refs[b.Ref] = true
		if b.Ref.Block < 0 || b.Ref.Index < 0 {
			return fmt.Errorf("profile %q: branch has invalid ref %v", p.Name, b.Ref)
		}
		if b.Taken > b.Count {
			return fmt.Errorf("profile %q: branch %v taken %d > count %d", p.Name, b.Ref, b.Taken, b.Count)
		}
		if b.Count == 0 && b.Transitions > 0 || b.Count > 0 && b.Transitions > b.Count-1 {
			return fmt.Errorf("profile %q: branch %v transitions %d exceed %d executions", p.Name, b.Ref, b.Transitions, b.Count)
		}
	}
	var nodeInsts uint64
	for _, n := range p.NodeList {
		nodeInsts += n.Count * uint64(n.Size)
	}
	if p.TotalInsts == 0 && nodeInsts > 0 {
		return fmt.Errorf("profile %q: zero total instructions but SFG records %d", p.Name, nodeInsts)
	}
	var mixTotal uint64
	for _, v := range p.GlobalMix {
		mixTotal += v
	}
	if p.TotalInsts > 0 && mixTotal == 0 {
		return fmt.Errorf("profile %q: %d instructions profiled but the global mix is empty", p.Name, p.TotalInsts)
	}
	return nil
}
