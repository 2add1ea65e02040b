package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseConfig pins what the command line sets: the defaults the
// usage text (and docs/cli.md) promise, and the values refused before a
// worker starts listening.
func TestParseConfig(t *testing.T) {
	defaults := config{listen: "unix:/tmp/w0.sock", cacheEntries: 4, chaosKillBlock: -1}
	with := func(edit func(*config)) config {
		c := defaults
		edit(&c)
		return c
	}
	listen := []string{"-listen", defaults.listen}
	cases := []struct {
		name    string
		args    []string
		want    config
		wantErr string // substring of the error; "" for success
	}{
		{"defaults", listen, defaults, ""},
		{"every flag", append([]string{"-sessions", "3", "-quiet", "-dial-timeout", "2s", "-handshake-timeout", "500ms", "-cache", "0", "-chaos-kill-block", "1"}, listen...),
			with(func(c *config) {
				c.sessions, c.quiet, c.cacheEntries, c.chaosKillBlock = 3, true, 0, 1
				c.dialTimeout, c.handshakeTimeout = 2*time.Second, 500*time.Millisecond
			}), ""},
		{"chaos drill disabled", append([]string{"-chaos-kill-block", "-1"}, listen...), defaults, ""},
		{"missing listen", nil, config{}, "-listen is required"},
		{"negative cache", append([]string{"-cache", "-1"}, listen...), config{}, "-cache = -1: must not be negative"},
		{"negative sessions", append([]string{"-sessions", "-2"}, listen...), config{}, "-sessions = -2"},
		{"negative dial timeout", append([]string{"-dial-timeout", "-1s"}, listen...), config{}, "-dial-timeout = -1s"},
		{"negative handshake timeout", append([]string{"-handshake-timeout", "-5ms"}, listen...), config{}, "-handshake-timeout = -5ms"},
		{"unknown flag", append([]string{"-workers", "2"}, listen...), config{}, "flag provided but not defined: -workers"},
		{"stray argument", append(listen, "serve"), config{}, `unexpected argument "serve"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseConfig(c.args)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("config\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}
