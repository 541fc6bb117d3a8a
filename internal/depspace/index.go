package depspace

import (
	"slices"
	"sort"
	"strings"
)

// The tuple index is Space.entries, every stored tuple kept in rdall order:
// field-wise as slices.Compare orders tuples, equal tuples in insertion
// order. Tuples sharing leading fields, or a key prefix under one leading
// field, are then one contiguous run found by binary search.

// rdallOrder sorts by tuple, then by insertion.
func rdallOrder(x, y *Entry) int {
	if c := slices.Compare(x.Tuple, y.Tuple); c != 0 {
		return c
	}
	return bySeq(x, y)
}

func (s *Space) insert(e *Entry) {
	i, _ := slices.BinarySearchFunc(s.entries, e, rdallOrder)
	s.entries = slices.Insert(s.entries, i, e)
}

// remove unlinks a stored entry; its tuple must not have changed since it
// was inserted.
func (s *Space) remove(e *Entry) {
	i, _ := slices.BinarySearchFunc(s.entries, e, rdallOrder)
	s.entries = slices.Delete(s.entries, i, i+1)
}

// run returns the stored tuples, in rdall order, that may match template
// and have a key (field 1) starting with prefix: those that begin with the
// template's leading concrete fields, narrowed to the key prefix when only
// the first field is concrete. A template led by a wildcard gets them all.
func (s *Space) run(template Tuple, prefix string) []*Entry {
	lead := template
	if i := slices.Index(template, Wildcard); i >= 0 {
		lead = template[:i]
	}
	narrow := len(lead) == 1 && prefix != ""
	probe := func(i int) int {
		t := s.entries[i].Tuple
		if c := slices.Compare(t[:min(len(t), len(lead))], lead); c != 0 || !narrow {
			return c
		}
		if len(t) < 2 {
			return -1
		}
		return strings.Compare(t[1][:min(len(t[1]), len(prefix))], prefix)
	}
	lo := sort.Search(len(s.entries), func(i int) bool { return probe(i) >= 0 })
	hi := lo + sort.Search(len(s.entries)-lo, func(i int) bool { return probe(lo+i) > 0 })
	return s.entries[lo:hi]
}
