package platform

import (
	"math"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	good := Platform{Workers: 4, Memory: 16 * GB, Bandwidth: 12 * GB}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid platform rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		p     Platform
		field string // named in the error
	}{
		{Platform{Workers: 0, Memory: GB, Bandwidth: GB}, "Workers"},
		{Platform{Workers: -1, Memory: GB, Bandwidth: GB}, "Workers"},
		{Platform{Workers: 2, Memory: 0, Bandwidth: GB}, "Memory"},
		{Platform{Workers: 2, Memory: -GB, Bandwidth: GB}, "Memory"},
		{Platform{Workers: 2, Memory: nan, Bandwidth: GB}, "Memory"},
		{Platform{Workers: 2, Memory: inf, Bandwidth: GB}, "Memory"},
		{Platform{Workers: 2, Memory: -inf, Bandwidth: GB}, "Memory"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: 0}, "Bandwidth"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: nan}, "Bandwidth"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: inf}, "Bandwidth"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: -inf}, "Bandwidth"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: GB, Latency: -1}, "Latency"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: GB, Latency: nan}, "Latency"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: GB, Latency: inf}, "Latency"},
		{Platform{Workers: 2, Memory: GB, Bandwidth: GB, Latency: -inf}, "Latency"},
	}
	for i, tc := range cases {
		err := tc.p.Validate()
		if err == nil {
			t.Errorf("case %d: invalid platform %+v accepted", i, tc.p)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("case %d: error %q does not name %s", i, err, tc.field)
		}
	}
}

func TestCommTime(t *testing.T) {
	p := Platform{Workers: 2, Memory: GB, Bandwidth: 10}
	if got := p.CommTime(25); got != 2.5 {
		t.Errorf("CommTime = %g, want 2.5", got)
	}
}

func TestString(t *testing.T) {
	p := Platform{Workers: 4, Memory: 16 * GB, Bandwidth: 12 * GB}
	s := p.String()
	for _, want := range []string{"P=4", "16.0GB", "12.0GB/s"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestUnits(t *testing.T) {
	if GB != 1e9 || MB != 1e6 || KB != 1e3 {
		t.Fatal("size units wrong")
	}
	if Millisecond != 1e-3 || Microsecond != 1e-6 {
		t.Fatal("time units wrong")
	}
}

func TestAlphaBetaCommTime(t *testing.T) {
	p := Platform{Workers: 2, Memory: GB, Bandwidth: 10, Latency: 0.5}
	if got := p.CommTime(25); got != 3.0 {
		t.Errorf("CommTime = %g, want 3.0 (0.5 + 25/10)", got)
	}
	if got := p.CommTime(0); got != 0 {
		t.Errorf("empty transfer charged latency: %g", got)
	}
	bad := Platform{Workers: 2, Memory: GB, Bandwidth: GB, Latency: -1}
	if err := bad.Validate(); err == nil {
		t.Errorf("negative latency accepted")
	}
}
