package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"uopsim/internal/runcache"
)

// ImportDir migrates a legacy flat blob directory (one <fingerprint>.json
// file per point, the store format of earlier releases) into the store,
// returning how many
// records were imported. Blobs travel verbatim — the stored bytes, and
// therefore every engine read and query row rendered from them, are
// byte-identical to what the flat dir served. Legacy blobs carry no
// feature vector (the flat dir never recorded one), so imported records
// answer fingerprint loads and unfiltered queries but not feature
// predicates. Records already present in the warehouse are not
// overwritten: the warehouse copy carries features, the import does not.
// Only files named by a well-formed fingerprint are read; quarantined
// (*.bad), temporary and any other files are skipped.
func (s *Store) ImportDir(dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, fmt.Errorf("warehouse: %w", err)
	}
	sort.Strings(names) // stable import order → stable segment bytes
	imported := 0
	for _, name := range names {
		fp, err := runcache.ParseFingerprint(strings.TrimSuffix(filepath.Base(name), ".json"))
		if err != nil {
			continue
		}
		s.mu.Lock()
		_, exists := s.idx[fp]
		s.mu.Unlock()
		if exists {
			continue
		}
		blob, err := os.ReadFile(name)
		if err != nil {
			return imported, fmt.Errorf("warehouse: import %s: %w", name, err)
		}
		if err := s.Put(fp, nil, blob); err != nil {
			return imported, fmt.Errorf("warehouse: import %s: %w", name, err)
		}
		imported++
	}
	s.mu.Lock()
	s.st.Imported += uint64(imported)
	s.mu.Unlock()
	return imported, nil
}
