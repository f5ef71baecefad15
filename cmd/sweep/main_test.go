package main

import "testing"

func TestBadCountsReturnErrors(t *testing.T) {
	for _, tc := range []struct {
		requests, outstanding int
		ok                    bool
	}{
		{300, 16, true},
		{1, 1, true},
		{0, 16, false},
		{-1, 16, false},
		{300, 0, false},
		{300, -4, false},
	} {
		err := checkCounts(tc.requests, tc.outstanding)
		if (err == nil) != tc.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok=%v", tc.requests, tc.outstanding, err, tc.ok)
		}
	}
}
