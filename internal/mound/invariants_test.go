package mound

import "fmt"

// Len returns a snapshot element count (exact when quiescent).
func (m *Mound) Len() int {
	var total int64
	top := int(m.leafLevel.Load())
	for l := 0; l <= top; l++ {
		nodes := m.levels[l]
		for i := range nodes {
			total += nodes[i].size.Load()
		}
	}
	return int(total)
}

// CheckInvariants validates the mound structure; quiescent use only.
func (m *Mound) CheckInvariants() error {
	top := int(m.leafLevel.Load())
	for level := 0; level <= top; level++ {
		nodes := m.levels[level]
		for slot := range nodes {
			n := &nodes[slot]
			var cnt int64
			var prev uint64
			first := true
			for ln := n.head; ln != nil; ln = ln.next {
				if !first && ln.key > prev {
					return errNotSorted(level, slot)
				}
				prev = ln.key
				first = false
				cnt++
			}
			if cnt != n.size.Load() {
				return errBadSize(level, slot)
			}
			if cnt > 0 {
				if n.top.Load() != n.head.key {
					return errBadTop(level, slot)
				}
				if level > 0 {
					p := m.node(level-1, slot/2)
					if p.size.Load() == 0 || p.top.Load() < n.top.Load() {
						return errInvariant(level, slot)
					}
				}
			}
		}
	}
	return nil
}

func errNotSorted(level, slot int) error {
	return fmt.Errorf("mound: node (%d,%d) list not sorted descending", level, slot)
}

func errBadSize(level, slot int) error {
	return fmt.Errorf("mound: node (%d,%d) cached size disagrees with list", level, slot)
}

func errBadTop(level, slot int) error {
	return fmt.Errorf("mound: node (%d,%d) cached top disagrees with head", level, slot)
}

func errInvariant(level, slot int) error {
	return fmt.Errorf("mound: invariant violated at (%d,%d): parent head below child head", level, slot)
}
