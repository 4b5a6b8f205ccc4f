package main

import (
	"fmt"
	"reflect"

	"faaskeeper/internal/core"
)

// presetField is one core.Config switch, named by field and set by value,
// so a preset keeps compiling (and keeps every other switch) after a PR
// deletes the field it names.
type presetField struct {
	name  string
	value any
}

// presets are the two deployments every workload runs on. paper is
// core.Config{}: AWS, object store, one shard, per-message distribution,
// gob, no cache. scaled turns on what PRs 1-6 added to the write and read
// paths.
var presets = map[string][]presetField{
	"paper": nil,
	"scaled": {
		{"WriteShards", 4},
		{"BatchWrites", true},
		{"CacheMode", "two-level"},
		{"UserStore", "kv"},
		{"WireCodec", "binary"},
	},
}

// applyPreset builds the named preset's core.Config and reports the fields
// the preset names that core.Config no longer has.
func applyPreset(name string) (cfg core.Config, missing []string) {
	fields, ok := presets[name]
	if !ok {
		panic("bench: unknown preset " + name)
	}
	for _, f := range fields {
		if !setIfPresent(&cfg, f.name, f.value) {
			missing = append(missing, name+"."+f.name)
		}
	}
	return cfg, missing
}

// setIfPresent sets cfg.<name> to value when the field exists and the
// value converts to its type (a string constant into a named string type,
// an int into an int field).
func setIfPresent(cfg *core.Config, name string, value any) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName(name)
	if !f.IsValid() || !f.CanSet() {
		return false
	}
	v := reflect.ValueOf(value)
	if !v.Type().ConvertibleTo(f.Type()) || v.Kind() != f.Kind() {
		panic(fmt.Sprintf("bench: preset field %s is a %s, not a %s", name, f.Kind(), v.Kind()))
	}
	f.Set(v.Convert(f.Type()))
	return true
}
