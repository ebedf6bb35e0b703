package core

// AllocDomain is where list blocks (lnodes) recycle: the shared freelist
// behind every context's free stack. It is a first-class object so it can
// be shared across queues: a sharded front-end (internal/sharded) builds S
// core queues over ONE domain, and the server all its tenants' shards, so a
// block freed through one queue serves another's allocation instead of
// fragmenting into S private pools. Array-mode queues hold no blocks and
// never touch it, so one domain serves queues of either set mode.
//
// A freed block goes straight back onto its context's stack (see alloc in
// tnode.go): every lnode is only read or written under its owning TNode's
// lock, so no optimistic reader can hold one. That is the paper's "ZMSQ
// (leak)" configuration, and the product's only one.
//
// The paper's memory-safe ZMSQ (§3.5) plugs in from outside, through the
// Reclaimer a domain may carry; in the product it is nil, one predictable
// branch at each of the four Hazards sites.
type AllocDomain[V any] struct {
	free freelist[V]
	join Reclaimer[lnode[V]] // nil: freed blocks are reused at once
}

// Hazards is one operation context's part in a safe memory reclamation
// protocol, at the four sites a queue consults it: publish identity id in
// slot i before an optimistic read, clear slot i after the operation,
// retire a freed list block, and release the participation when the
// context dies. *hazard.Handle satisfies it.
type Hazards[B any] interface {
	Protect(i int, id uintptr)
	Clear(i int)
	Retire(b *B)
	Release()
}

// Reclaimer makes a context's Hazards; done receives each block retired
// through them once it may be reused. B is the domain's list block type,
// which no other package can name: a caller outside core builds the
// Reclaimer in a function generic over B and passes NewAllocDomain to it,
// so B is inferred from NewAllocDomain's signature (see
// harness.NewHazardDomain).
type Reclaimer[B any] func(done func(*B)) Hazards[B]

// NewAllocDomain builds a standalone allocation domain. Hand it to Open as
// Options.Domain to share one freelist across several queues; queues opened
// without one get a private domain with no Reclaimer. r is nil in the
// product. A non-nil r gates every freed block's reuse on r's protocol, and
// its Hazards receive the identity of every TNode an operation reads
// optimistically.
func NewAllocDomain[V any](r Reclaimer[lnode[V]]) *AllocDomain[V] {
	return &AllocDomain[V]{join: r}
}
