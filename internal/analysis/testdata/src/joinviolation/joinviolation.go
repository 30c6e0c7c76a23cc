// Package joinviolation is the driver's acceptance fixture: a join-shaped
// descent that reads pages raw from the pager instead of through the buffer
// tracker, with no suppression.  cmd/repolint's tests lint this package
// explicitly (testdata is excluded from ./... patterns) and require the run
// to fail — proving a deliberately smuggled raw read cannot pass CI.
//
//repro:measured
package joinviolation

import "repro/internal/storage"

// DescendRaw walks a page chain by reading straight from the pager: every
// read here is invisible to the counted I/O the experiments report.
func DescendRaw(p *storage.Pager, id storage.PageID, pageSize int) error {
	buf, err := p.Read(id, nil)
	if err != nil {
		return err
	}
	_, err = storage.DecodeNode(buf, pageSize)
	return err
}
