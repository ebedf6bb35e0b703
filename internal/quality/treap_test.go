package quality

// Max returns the largest key; ok is false when empty.
func (t *Treap) Max() (uint64, bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, true
}

// Contains reports whether key is present.
func (t *Treap) Contains(key uint64) bool {
	n := t.root
	for n != nil {
		switch {
		case key == n.key:
			return true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return false
}
