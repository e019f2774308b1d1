package core

import "fmt"

// History merging. The paper positions Dimmunix antibodies as something
// "customers [use] to defend against deadlocks while waiting for a vendor
// patch, and software vendors as a safety net" — which implies histories
// move between machines: a vendor ships the signatures its test fleet
// collected, a user merges them into the device's history, and every app
// is immune to bugs it has never locally encountered. MergeHistories
// implements that: a deduplicating union of signature sets.

// MergeHistories returns the union of the given signature lists,
// deduplicated by signature key (kind + outer-position multiset), in
// first-seen order. Inputs are not modified; the result contains deep
// copies.
func MergeHistories(lists ...[]*Signature) ([]*Signature, error) {
	seen := make(map[string]bool)
	var out []*Signature
	for li, list := range lists {
		for si, sig := range list {
			if sig == nil {
				return nil, fmt.Errorf("merge: list %d entry %d is nil", li, si)
			}
			if err := sig.Validate(); err != nil {
				return nil, fmt.Errorf("merge: list %d entry %d: %w", li, si, err)
			}
			key := sig.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, &Signature{Kind: sig.Kind, Pairs: ClonePairs(sig.Pairs)})
		}
	}
	return out, nil
}

// MergeSourceStat is one source's contribution to a merge.
type MergeSourceStat struct {
	// Loaded is how many signatures the source held.
	Loaded int
	// Added is how many of them were new to the destination (and to every
	// earlier source).
	Added int
	// Duplicates is how many were already present.
	Duplicates int
}

// MergeDetail reports a merge with per-source provenance, the shape a
// fleet operator needs: which device or vendor history actually
// contributed each antibody.
type MergeDetail struct {
	// Added is the total number of signatures appended to the destination.
	Added int
	// PerSource holds one entry per source, in argument order.
	PerSource []MergeSourceStat
	// Origin maps each added signature's key to the index of the source
	// that first contributed it.
	Origin map[string]int
	// AddedKeys lists the added signatures' keys in append order.
	AddedKeys []string
}

// MergeStoresDetailed loads every source store and appends the signatures
// missing from dst, skipping duplicates already in dst (or across
// sources). The detail reports per-source added/duplicate counts and
// first-contributor provenance.
func MergeStoresDetailed(dst HistoryStore, sources ...HistoryStore) (MergeDetail, error) {
	detail := MergeDetail{
		PerSource: make([]MergeSourceStat, len(sources)),
		Origin:    make(map[string]int),
	}
	existing, err := dst.Load()
	if err != nil {
		return detail, fmt.Errorf("merge: load destination: %w", err)
	}
	seen := make(map[string]bool, len(existing))
	for _, sig := range existing {
		seen[sig.Key()] = true
	}
	for i, src := range sources {
		sigs, err := src.Load()
		if err != nil {
			return detail, fmt.Errorf("merge: load source %d: %w", i, err)
		}
		detail.PerSource[i].Loaded = len(sigs)
		for _, sig := range sigs {
			key := sig.Key()
			if seen[key] {
				detail.PerSource[i].Duplicates++
				continue
			}
			if err := dst.Append(sig); err != nil {
				return detail, fmt.Errorf("merge: append: %w", err)
			}
			seen[key] = true
			detail.PerSource[i].Added++
			detail.Added++
			detail.Origin[key] = i
			detail.AddedKeys = append(detail.AddedKeys, key)
		}
	}
	return detail, nil
}
