// Fixture: an area or energy figure computed outside src/ppa/ must trip the
// hw-accounting rule; a field that merely carries a unit suffix must not.
struct BufferModel {
  double cell_um2 = 0.1;
  [[nodiscard]] double area_mm2() const { return cell_um2 * 1e-6; }
};
