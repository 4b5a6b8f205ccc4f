// Package znode defines the ZooKeeper data model shared by FaaSKeeper and
// the baseline ZooKeeper implementation: path algebra and validation, node
// metadata (Stat), creation flags, and a compact binary codec used when
// nodes are stored in cloud object storage.
package znode

import (
	"errors"
	"fmt"
	"strings"
)

// Root is the path of the tree root.
const Root = "/"

// Path validation errors.
var (
	ErrBadPath = errors.New("znode: invalid path")
)

// ValidatePath checks ZooKeeper path syntax: absolute, no empty or
// relative segments, no trailing slash (except the root itself).
func ValidatePath(p string) error {
	if p == "" {
		return fmt.Errorf("%w: empty", ErrBadPath)
	}
	if p[0] != '/' {
		return fmt.Errorf("%w: %q is not absolute", ErrBadPath, p)
	}
	if p == Root {
		return nil
	}
	if strings.HasSuffix(p, "/") {
		return fmt.Errorf("%w: %q has a trailing slash", ErrBadPath, p)
	}
	// Cut, not Split: every client call validates its path, and Split
	// would allocate the segment slice.
	for rest, more := p[1:], true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		if seg == "" {
			return fmt.Errorf("%w: %q contains an empty segment", ErrBadPath, p)
		}
		if seg == "." || seg == ".." {
			return fmt.Errorf("%w: %q contains a relative segment", ErrBadPath, p)
		}
		if strings.ContainsAny(seg, "\x00") {
			return fmt.Errorf("%w: %q contains a null byte", ErrBadPath, p)
		}
	}
	return nil
}

// Parent returns the parent path ("/" for top-level nodes). The root has
// no parent; Parent("/") returns "/".
func Parent(p string) string {
	if p == Root {
		return Root
	}
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return Root
	}
	return p[:i]
}

// Base returns the final path segment.
func Base(p string) string {
	if p == Root {
		return ""
	}
	return p[strings.LastIndexByte(p, '/')+1:]
}

// Join concatenates a parent path and a child name.
func Join(parent, child string) string {
	if parent == Root {
		return Root + child
	}
	return parent + "/" + child
}

// Depth returns the number of segments (0 for the root).
func Depth(p string) int {
	if p == Root {
		return 0
	}
	return strings.Count(p, "/")
}

// SequentialName formats the monotonically increasing suffix ZooKeeper
// appends to sequential nodes.
func SequentialName(prefix string, n int64) string {
	return fmt.Sprintf("%s%010d", prefix, n)
}
