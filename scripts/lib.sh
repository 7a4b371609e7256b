# Helpers shared by the CI scripts. Source it; don't run it.

# data_fence report|dashboard FILE — print the fenced Data-tier region of
# a run report (`=== BEGIN/END DATA TIER` lines) or of a run dashboard
# (`<!--=== BEGIN/END DASHBOARD DATA TIER ===-->` comments), fence lines
# included, so callers can `cmp` two runs' regions byte for byte. Fails
# when FILE has no such region.
data_fence() {
  local begin end region
  case "$1" in
    report)
      begin='^=== BEGIN DATA TIER'
      end='^=== END DATA TIER'
      ;;
    dashboard)
      begin='^<!--=== BEGIN DASHBOARD DATA TIER ===-->$'
      end='^<!--=== END DASHBOARD DATA TIER ===-->$'
      ;;
    *)
      echo "data_fence: unknown kind '$1' (expected report or dashboard)" >&2
      return 2
      ;;
  esac
  region="$(sed -n "/$begin/,/$end/p" "$2")"
  if [ -z "$region" ]; then
    echo "data_fence: no $1 Data-tier region in $2" >&2
    return 1
  fi
  printf '%s\n' "$region"
}
