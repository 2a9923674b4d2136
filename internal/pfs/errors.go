package pfs

import "errors"

// Error values returned by file system operations.
var (
	// ErrClosed reports an operation on a closed handle.
	ErrClosed = errors.New("pfs: handle is closed")
	// ErrBadSize reports a non-positive request size.
	ErrBadSize = errors.New("pfs: request size must be positive")
	// ErrBadOffset reports a negative seek target.
	ErrBadOffset = errors.New("pfs: offset must be non-negative")
	// ErrRecordSize reports an M_RECORD request whose size differs from
	// the file's established record size.
	ErrRecordSize = errors.New("pfs: M_RECORD request size must match the record size")
	// ErrNotCollective reports a collective-mode operation on a handle
	// that was not opened by a group (gopen).
	ErrNotCollective = errors.New("pfs: collective mode requires a group open")
	// ErrCollectiveMismatch reports group members disagreeing on the
	// parameters of a collective operation.
	ErrCollectiveMismatch = errors.New("pfs: collective operation parameters differ across nodes")
	// ErrSeekCollective reports a seek on a shared-pointer collective
	// handle, which PFS does not support.
	ErrSeekCollective = errors.New("pfs: cannot seek a shared-pointer collective file")
	// ErrNotMember reports a node operating on a group it is not part of.
	ErrNotMember = errors.New("pfs: node is not a member of the group")
)
