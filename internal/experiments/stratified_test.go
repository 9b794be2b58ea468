package experiments

import (
	"cmp"
	"reflect"
	"testing"

	"throughputlab/internal/netaddr"
)

// TestSortByCountBreaksTiesByKey feeds equal-count keys in reverse key
// order. A count-only sort keeps them as they came — map iteration
// order, in Stratified — so both orderings must fall back to the key.
func TestSortByCountBreaksTiesByKey(t *testing.T) {
	aggs := []aggKey{
		{"gtt", "hou", "comcast"},
		{"gtt", "hou", "att"},
		{"gtt", "atl", "verizon"},
		{"cogent", "lax", "att"},
	}
	counts := map[aggKey]int{aggs[0]: 186, aggs[1]: 186, aggs[2]: 186, aggs[3]: 500}
	sortByCount(aggs, func(k aggKey) int { return counts[k] }, aggKey.less)
	want := []aggKey{
		{"cogent", "lax", "att"},
		{"gtt", "atl", "verizon"},
		{"gtt", "hou", "att"},
		{"gtt", "hou", "comcast"},
	}
	if !reflect.DeepEqual(aggs, want) {
		t.Errorf("aggregate order = %v, want %v", aggs, want)
	}

	fars := []netaddr.Addr{9, 7, 5, 3}
	sortByCount(fars, func(netaddr.Addr) int { return 186 }, cmp.Less[netaddr.Addr])
	if want := []netaddr.Addr{3, 5, 7, 9}; !reflect.DeepEqual(fars, want) {
		t.Errorf("far-address order = %v, want %v", fars, want)
	}
}
