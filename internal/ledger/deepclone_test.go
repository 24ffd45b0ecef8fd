package ledger

// deepClone is the pre-COW CloneView: full private copies of the account
// table and the block list, sharing nothing.
func (l *Ledger) deepClone() *Ledger {
	v := &Ledger{
		nAccounts: l.nAccounts,
		pages:     newPagedAccounts(l.nAccounts),
		seed:      l.seed,
		tip:       l.tip,
		fees:      l.fees,
	}
	for i := 0; i < l.nAccounts; i++ {
		*v.acctAt(i) = *l.acctAt(i)
	}
	total := len(l.blockPrefix) + len(l.blocks)
	if total > 0 {
		v.blocks = make([]Block, 0, total)
		v.blocks = append(v.blocks, l.blockPrefix...)
		v.blocks = append(v.blocks, l.blocks...)
	}
	return v
}
