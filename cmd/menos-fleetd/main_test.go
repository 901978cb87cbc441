package main

import (
	"net"
	"strings"
	"testing"
)

// TestRunRejectsBadDurations: -poll and -trace-buffer-mb are
// validated before anything binds. The -listen address is held by
// the test, so a flag that got past validation shows up as a listen
// error instead of a daemon that runs forever (or, for -poll 0, panics
// in its ticker).
func TestRunRejectsBadDurations(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	base := []string{
		"-quiet", "-listen", held.Addr().String(),
		"-server", "id=1,addr=127.0.0.1:1,metrics=http://127.0.0.1:1,admin=http://127.0.0.1:1",
	}
	for _, tc := range []struct {
		flags []string
		want  string // substring of run's error
	}{
		{[]string{"-poll", "0"}, "-poll"},
		{[]string{"-poll", "-1s"}, "-poll"},
		{[]string{"-trace-buffer-mb", "-5"}, "-trace-buffer-mb"},
		{[]string{"-trace-buffer-mb", "9223372036854775807"}, "-trace-buffer-mb"},
		// Valid values pass validation and reach the held listener.
		{[]string{"-poll", "1s"}, "listen"},
		{[]string{"-trace-buffer-mb", "0"}, "listen"},
	} {
		err := run(append(append([]string{}, base...), tc.flags...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: err = %v, want it to mention %q", tc.flags, err, tc.want)
		}
	}
}
