package cli

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",,,", nil},
		{"E1a", []string{"E1a"}},
		{"E1a,E2b", []string{"E1a", "E2b"}},
		{" E1a , E2b ,", []string{"E1a", "E2b"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("1, 2,4,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Fatalf("ParseIntList: got %v, %v", got, err)
	}
	if got, err := ParseIntList(""); err != nil || got != nil {
		t.Fatalf("empty list: got %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-1", "two", "1,2,x"} {
		if _, err := ParseIntList(bad); err == nil {
			t.Errorf("ParseIntList(%q) did not fail", bad)
		}
	}
}

// FuzzParseIntList: -threads values come straight from the command line.
// The parser must never panic, and a list it accepts holds only positive
// entries and parses back to itself once re-joined with commas.
func FuzzParseIntList(f *testing.F) {
	for _, s := range []string{"", "1,2,4,8", " 1 , 2 ,", ",,", "0", "-1", "+3", "007", "9223372036854775808", "1,x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseIntList(s)
		if err != nil {
			return
		}
		parts := make([]string, len(got))
		for i, n := range got {
			if n <= 0 {
				t.Fatalf("ParseIntList(%q) accepted non-positive entry %d", s, n)
			}
			parts[i] = strconv.Itoa(n)
		}
		again, err := ParseIntList(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("ParseIntList(%q) = %v, but its re-joined form parses to %v, %v", s, got, again, err)
		}
	})
}
