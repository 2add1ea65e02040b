package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/admm"
)

// TestParseConfig pins what the command line sets: the defaults the
// usage text (and docs/cli.md) promise, the executor spec, and the
// values refused before anything is built.
func TestParseConfig(t *testing.T) {
	fused, unfused := true, false
	defaults := config{
		problem: "packing",
		size:    10,
		iters:   2000,
		seed:    1,
		run: runConfig{
			spec:   admm.ExecutorSpec{Kind: admm.ExecSerial, Fused: &fused},
			repeat: 1,
		},
	}
	with := func(edit func(*config)) config {
		c := defaults
		edit(&c)
		return c
	}
	cases := []struct {
		name    string
		args    []string
		want    config
		wantErr string // substring of the error; "" for success
	}{
		{"defaults", nil, defaults, ""},
		{"problem knobs", []string{"-problem", "mpc", "-size", "2000", "-iters", "50", "-seed", "-3", "-repeat", "2"},
			with(func(c *config) { c.problem, c.size, c.iters, c.seed, c.run.repeat = "mpc", 2000, 50, -3, 2 }), ""},
		{"sharded", []string{"-backend", "sharded", "-shards", "2"},
			with(func(c *config) { c.run.spec = admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2, Fused: &fused} }), ""},
		{"sockets over addrs", []string{"-backend", "sharded", "-transport", "sockets", "-addrs", "unix:/a, unix:/b",
			"-failover", "survivors", "-fleet"},
			with(func(c *config) {
				c.run.fleet = true
				c.run.spec = admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2, Transport: admm.TransportSockets,
					Addrs: []string{"unix:/a", "unix:/b"}, Fused: &fused, Failover: "survivors"}
			}), ""},
		{"five-phase oracle", []string{"-fused=false"}, with(func(c *config) { c.run.spec.Fused = &unfused }), ""},
		{"negative size", []string{"-size", "-1"}, config{}, "-size = -1: must not be negative"},
		{"negative iters", []string{"-iters", "-5"}, config{}, "-iters = -5"},
		{"negative shards", []string{"-shards", "-2"}, config{}, "-shards = -2"},
		{"negative repeat", []string{"-repeat", "-1"}, config{}, "-repeat = -1"},
		{"zero repeat", []string{"-repeat", "0"}, config{}, "-repeat 0 out of range"},
		// shard.Solve's one attempt loop owns every retry; there is no
		// retry budget to set.
		{"retired dial attempts", []string{"-dial-attempts", "3"}, config{}, "flag provided but not defined: -dial-attempts"},
		// The liveness rule bounds a whole worker session, dial and
		// handshake included: there is no timeout to set.
		{"retired dial timeout", []string{"-dial-timeout", "5s"}, config{}, "flag provided but not defined: -dial-timeout"},
		{"retired handshake timeout", []string{"-handshake-timeout", "2s"}, config{}, "flag provided but not defined: -handshake-timeout"},
		// A running block is bounded by the workers' heartbeats; there is
		// no per-frame deadline to set.
		{"retired frame timeout", []string{"-frame-timeout", "1s"}, config{}, "flag provided but not defined: -frame-timeout"},
		{"unknown problem", []string{"-problem", "tsp"}, config{}, `unknown problem "tsp"`},
		{"unknown backend", []string{"-backend", "gpu"}, config{}, `unknown executor "gpu"`},
		{"retired backend", []string{"-backend", "parallel"}, config{}, `unknown executor "parallel"`},
		{"transport on serial", []string{"-transport", "sockets"}, config{}, "transport"},
		{"unfused sharded", []string{"-backend", "sharded", "-fused=false"}, config{}, "fused"},
		{"worker named twice", []string{"-backend", "sharded", "-transport", "sockets", "-addrs", "a,a"}, config{}, `addrs "a" and "a" name one worker`},
		{"fleet without addrs", []string{"-fleet"}, config{}, "-fleet needs -addrs"},
		{"garbage count", []string{"-size", "ten"}, config{}, `invalid value "ten" for flag -size`},
		{"unknown flag", []string{"-workers", "2"}, config{}, "flag provided but not defined: -workers"},
		{"stray argument", []string{"mpc"}, config{}, `unexpected argument "mpc"`},
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
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("config\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}
