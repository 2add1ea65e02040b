package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/admm"
	"repro/internal/bulk"
)

// TestParseConfig pins what the command line sets: the defaults the
// usage text (and docs/cli.md) promise, the stream-level executor, and
// the values refused before the pipeline starts.
func TestParseConfig(t *testing.T) {
	fused, unfused := true, false
	defaults := config{
		opts: bulk.Options{
			MaxIter:      1000,
			MaxLineBytes: 1 << 20,
			Executor:     admm.ExecutorSpec{Kind: admm.ExecSerial, Fused: &fused},
		},
		storeMaxBytes: 256 << 20,
		seed:          1,
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
		{"pipeline knobs", []string{"-workers", "3", "-max-iter", "50", "-abs-tol", "1e-4", "-rel-tol", "1e-3", "-max-line-bytes", "4096"},
			with(func(c *config) {
				c.opts.Workers, c.opts.MaxIter, c.opts.AbsTol, c.opts.RelTol, c.opts.MaxLineBytes = 3, 50, 1e-4, 1e-3, 4096
			}), ""},
		{"sharded sockets", []string{"-executor", "sharded", "-transport", "sockets", "-addrs", " unix:/a, unix:/b ,"},
			with(func(c *config) {
				c.opts.Executor = admm.ExecutorSpec{Kind: admm.ExecSharded, Shards: 2, Transport: admm.TransportSockets,
					Addrs: []string{"unix:/a", "unix:/b"}, Fused: &fused}
			}), ""},
		{"five-phase oracle", []string{"-fused=false"}, with(func(c *config) { c.opts.Executor.Fused = &unfused }), ""},
		{"store, gen and a negative seed", []string{"-store", "-1", "-store-max-bytes", "0", "-gen", "20", "-seed", "-7"},
			with(func(c *config) { c.storeDir, c.storeMaxBytes, c.gen, c.seed = "-1", 0, 20, -7 }), ""},
		{"negative workers", []string{"-workers", "-3"}, config{}, "-workers = -3: must not be negative"},
		{"negative shards", []string{"-executor", "sharded", "-shards", "-2"}, config{}, "-shards = -2"},
		{"negative max iter", []string{"-max-iter", "-5"}, config{}, "-max-iter = -5"},
		{"negative line cap", []string{"-max-line-bytes", "-1"}, config{}, "-max-line-bytes = -1"},
		{"negative store cap", []string{"-store-max-bytes", "-1"}, config{}, "-store-max-bytes = -1"},
		{"negative gen", []string{"-gen", "-1"}, config{}, "-gen = -1"},
		{"negative abs tol", []string{"-abs-tol", "-1e-4"}, config{}, "-abs-tol = -0.0001"},
		{"NaN rel tol", []string{"-rel-tol", "NaN"}, config{}, "-rel-tol = NaN"},
		{"unknown executor", []string{"-executor", "gpu"}, config{}, `unknown executor "gpu"`},
		{"unfused sharded", []string{"-executor", "sharded", "-fused=false"}, config{}, "fused"},
		{"garbage count", []string{"-workers", "two"}, config{}, `invalid value "two" for flag -workers`},
		{"unknown flag", []string{"-queue", "1"}, config{}, "flag provided but not defined: -queue"},
		{"stray argument", []string{"in.jsonl"}, config{}, `unexpected argument "in.jsonl"`},
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
