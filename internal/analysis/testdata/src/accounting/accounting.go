// Package accounting is a golden package for the accounting analyzer: it
// plays the role of a join-path package that must not read pages or decode
// nodes behind the tracker's back. The imports are the real storage types,
// so seeding a raw (*storage.Pager).Read into a join-like package is
// exactly the violation the acceptance criteria demand to fail the build.
package accounting

import "repro/internal/storage"

// JoinLikeRead performs a raw page read outside any sanctioned wrapper —
// the counted I/O would silently diverge from measured I/O.
func JoinLikeRead(p *storage.Pager, id storage.PageID, frame []byte) ([]byte, error) {
	return p.Read(id, frame) // want `raw page read \(\*storage\.Pager\)\.Read outside a //repro:io-boundary wrapper`
}

// JoinLikeDecode decodes a node from raw bytes outside a sanctioned wrapper.
func JoinLikeDecode(buf []byte, pageSize int) error {
	_, err := storage.DecodeNode(buf, pageSize) // want `raw node decode storage\.DecodeNode`
	return err
}

// BoundaryRead is a sanctioned wrapper: the annotation admits it to the
// measured-I/O surface, like TreeStore.ReadPage and EpochReader.ReadPage.
//
//repro:io-boundary
func BoundaryRead(p *storage.Pager, id storage.PageID, frame []byte) ([]byte, error) {
	buf, err := p.Read(id, frame)
	if err != nil {
		return nil, err
	}
	if _, err := storage.DecodeNode(buf, len(buf)); err != nil {
		return nil, err
	}
	return buf, nil
}

// SuppressedRead documents a deliberate exception at the call site.
func SuppressedRead(p *storage.Pager, id storage.PageID, frame []byte) ([]byte, error) {
	//repolint:ignore accounting recovery path reads before any tracker exists
	return p.Read(id, frame)
}
