package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestParseConfig pins what the command line sets: the defaults the
// usage text (and docs/cli.md) promise, the cache knob, and the values
// refused before a server starts.
func TestParseConfig(t *testing.T) {
	defaults := serve.Config{
		QueueDepth:   64,
		CachePerKey:  2,
		MaxIterLimit: 200000,
		BulkStreams:  2,
		MaxBodyBytes: 1 << 20,
	}
	with := func(edit func(*serve.Config)) serve.Config {
		c := defaults
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		args    []string
		want    serve.Config
		wantErr string // substring of the error; "" for success
	}{
		{"defaults", nil, defaults, ""},
		{"cache per key", []string{"-cache-per-key=4"}, with(func(c *serve.Config) { c.CachePerKey = 4 }), ""},
		{"workers and timeouts", []string{"-workers", "3", "-dial-timeout", "2s", "-fleet-min-edges", "500"},
			with(func(c *serve.Config) {
				c.Workers = 3
				c.DialTimeout = 2 * time.Second
				c.FleetPlanner.MinEdges = 500
			}), ""},
		{"negative cache per key", []string{"-cache-per-key=-2"}, serve.Config{}, "-cache-per-key = -2: must not be negative"},
		{"negative queue", []string{"-queue", "-5"}, serve.Config{}, "-queue = -5"},
		{"negative body bytes", []string{"-max-body-bytes", "-1"}, serve.Config{}, "-max-body-bytes = -1"},
		{"negative duration", []string{"-dial-timeout", "-1s"}, serve.Config{}, "-dial-timeout = -1s"},
		{"timeout past the bound", []string{"-handshake-timeout", "2h"}, serve.Config{}, "must not exceed 1h0m0s"},
		{"garbage cache per key", []string{"-cache-per-key", "two"}, serve.Config{}, `invalid value "two" for flag -cache-per-key`},
		{"unknown flag", []string{"-cache-bytes", "1"}, serve.Config{}, "flag provided but not defined: -cache-bytes"},
		{"stray argument", []string{"serve"}, serve.Config{}, `unexpected argument "serve"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, o, err := parseConfig(c.args)
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
			if o.addr != ":8080" || len(o.fleet.Addrs) != 0 || o.storeDir != "" || o.storeMaxBytes != 256<<20 {
				t.Errorf("process options %+v, want the defaults", o)
			}
		})
	}
}

// TestParseConfigOptions: the fleet flags land in the registry config,
// and a string flag may take a value that reads as a negative number
// (only numbers are checked for sign).
func TestParseConfigOptions(t *testing.T) {
	_, o, err := parseConfig([]string{"-fleet-addrs", " tcp:a:1, unix:/b ,", "-fleet-dead-after", "5", "-fleet-probe-interval", "200ms", "-store", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.storeDir != "-1" {
		t.Errorf("store dir %q, want %q", o.storeDir, "-1")
	}
	if got := strings.Join(o.fleet.Addrs, "|"); got != "tcp:a:1|unix:/b" {
		t.Errorf("fleet addrs %q", got)
	}
	if o.fleet.DeadAfter != 5 || o.fleet.ProbeInterval != 200*time.Millisecond || o.fleet.ProbeTimeout != time.Second {
		t.Errorf("fleet config %+v", o.fleet)
	}
}
